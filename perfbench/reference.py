"""Fixed work that measures how fast the machine runs Python right now.

A fresh interpreter imports standard-library modules that docstudy also
uses and runs a fixed loop of regex tokenising, dict counting, JSON and
hashing. It never imports docstudy, so no change to the program can move
its time; only the machine's speed at that moment can.

    python3 perfbench/reference.py
"""

import hashlib
import json
import re

WORDS = re.compile(r"[^\W_]+")
ROUNDS = 2


def main() -> None:
    text = " ".join(f"Word{i % 97} met the {i % 13} group (No. {i}) in 19{i % 90:02d}." for i in range(3000))
    digest = hashlib.sha256()
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        for match in WORDS.finditer(text):
            token = match.group().lower()
            counts[token] = counts.get(token, 0) + 1
        line = json.dumps(counts, sort_keys=True)
        digest.update(json.dumps(json.loads(line), sort_keys=True).encode("utf-8"))
    print(digest.hexdigest()[:16])


if __name__ == "__main__":
    main()
