"""Splitting raw text into decodable fragments.

Mixed-script lines are carved into maximal runs of word characters; the
delimiter runs between them are carried through segmentation untouched,
so the original line is always recoverable from the output.  A part's
index is its role: fragments sit at the even indices, delimiter runs at
the odd ones, and a line that starts or ends with a delimiter has an
empty fragment at that end.
"""
from embseg import fragment_texts, reassemble, split_fragments

LINES = [
    "今天天气很好！我们去爬山。",
    "价格是120元（含税），明天涨价10%。",
    "ＡＢＣ是全角字母，按标点处理：x1。y2！",
]


def main() -> None:
    for line in LINES:
        parts = split_fragments(line)
        print(f"line:      {line}")
        for i, text in enumerate(parts):
            print(f"  {'delimiter' if i % 2 else 'fragment':9s} {text!r}")
        frags = fragment_texts(parts)
        # stand-in segmentation: one character per word
        rebuilt = reassemble([list(f) for f in frags], parts)
        print(f"rebuilt:   {rebuilt}")
        assert rebuilt.replace(" ", "") == line
        print()


if __name__ == "__main__":
    main()
