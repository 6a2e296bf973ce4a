"""Seeded raw corpora for the three workloads, and the eval inputs derived
from a pipeline's test side.

Every workload fixes its shape (document count, sentence counts and
template at each position) independently of the seed; the seed only picks
names, places and numbers. Two seeds therefore give the same amount of
work with different bytes, which keeps run-to-run spread small.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

FIRST = [
    "Alice", "Brandon", "Carla", "Derek", "Elena", "Felix", "Grace", "Hugo",
    "Irene", "Jonas", "Katja", "Liam", "Mona", "Nadia", "Oscar", "Petra",
    "Quinn", "Rosa", "Stefan", "Tara", "Ulrich", "Vera", "Walter", "Yusuf",
]
LAST = [
    "Abbott", "Becker", "Castillo", "Dunn", "Eriksen", "Fontaine", "Garza",
    "Holt", "Ivanova", "Jansen", "Keller", "Lindgren", "Moreau", "Novak",
    "Ortega", "Palmer", "Quintero", "Reyes", "Salomon", "Tanaka", "Ueda",
]
CITIES = [
    ("Lisbon", "Portuguese"), ("Oslo", "Norwegian"), ("Madrid", "Spanish"),
    ("Vienna", "Austrian"), ("Prague", "Czech"), ("Dublin", "Irish"),
    ("Zagreb", "Croatian"), ("Warsaw", "Polish"), ("Helsinki", "Finnish"),
    ("Athens", "Greek"), ("Tallinn", "Estonian"), ("Bern", "Swiss"),
]
ORGS = [
    "Northgate University", "Harbor Lane Institute", "Silver Oak College",
    "Crestfield Academy", "Bellmont Conservatory", "Eastbrook Polytechnic",
    "Rivermist School", "Welland Observatory", "Marlow Museum",
]
PROFESSIONS = [
    "painter", "novelist", "architect", "botanist", "composer", "historian",
    "photographer", "sculptor", "cartographer", "violinist",
]
MONTHS = [
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
]
NOUNS = [
    "river", "garden", "harbor", "library", "bridge", "valley", "market",
    "orchard", "tower", "meadow", "workshop", "archive", "station", "forest",
]
ADJECTIVES = ["quiet", "narrow", "old", "bright", "distant", "green", "small", "busy"]
# non-ASCII surfaces for mixed_docs
ACCENTED = [
    "José Müller", "Zoë Dvořák", "Ana Ñúñez", "Søren Kierkegård", "Łukasz Wójcik",
    "Chloé Benoît", "Jürgen Straße", "Íñigo Peña", "Björk Guðmundsdóttir",
]

WORKLOADS = ("short_docs", "long_docs", "mixed_docs")

# long_docs: several lengths so a growth exponent can be fitted
LONG_SENTENCES = (500, 1000, 2000)
SHORT_DOCS = 400
MIXED_DOCS = 240


@dataclass
class Workload:
    name: str
    jobs: int
    fraction: float
    records: list[dict]
    sentences: int
    discard_share: float = 0.0

    def write(self, path: Path) -> int:
        data = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in self.records)
        path.write_text(data, "utf-8")
        return len(data.encode("utf-8"))


def _name(rng: random.Random) -> str:
    return f"{rng.choice(FIRST)} {rng.choice(LAST)}"


def _date(rng: random.Random) -> str:
    return f"{rng.randint(1, 28)} {rng.choice(MONTHS)} {rng.randint(1900, 1999)}"


def _rich_sentence(rng: random.Random, k: int) -> str:
    """Entity-rich sentence ending in a prepositional phrase and a period."""
    city, nat = rng.choice(CITIES)
    city2 = rng.choice(CITIES)[0]
    templates = (
        lambda: f"{_name(rng)} met {_name(rng)} in {city} on {_date(rng)}.",
        lambda: f"The {rng.choice(ORGS)} opened a {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} near {city} with {_name(rng)}.",
        lambda: f"During {rng.randint(1900, 2023)} the {nat} team of {_name(rng)} finished {rng.randint(2, 400)} projects for {city2}.",
        lambda: f"{_name(rng)} wrote about the {rng.choice(NOUNS)} of {city} for the {rng.choice(ORGS)}.",
        lambda: f"Later the group moved from {city} to {city2} after {rng.randint(2, 40)} years.",
    )
    return templates[k % len(templates)]()


def short_docs(seed: int) -> Workload:
    """Many uniform three-sentence biographies: every generator fires."""
    rng = random.Random(seed)
    records = []
    for i in range(SHORT_DOCS):
        fn, ln = rng.choice(FIRST), rng.choice(LAST)
        other = _name(rng)
        city, nat = rng.choice(CITIES)
        city2 = rng.choice([c for c, _ in CITIES if c != city])
        prof = rng.choice(PROFESSIONS)
        year2 = rng.randint(2000, 2010)
        body = (
            f"{fn} {ln} (born {_date(rng)}) is a {nat} {prof} from {city}. "
            f"They studied at {rng.choice(ORGS)} between {year2} and {year2 + rng.randint(1, 9)}. "
            f"In {rng.randint(2011, 2023)} {fn} moved to {city2} with {other}."
        )
        records.append({"id": f"s{seed}-{i:05d}", "title": f"{fn} {ln} ({prof} {i})", "body": body, "source": "synthetic"})
    return Workload("short_docs", jobs=1, fraction=0.1, records=records, sentences=3 * SHORT_DOCS)


def long_docs(seed: int) -> Workload:
    """Three single-paragraph documents of 500, 1,000 and 2,000 sentences."""
    rng = random.Random(seed)
    records = []
    for i, n in enumerate(LONG_SENTENCES):
        body = " ".join(_rich_sentence(rng, k) for k in range(n))
        title = f"{_name(rng)} chronicle {i}"
        records.append({"id": f"l{seed}-{i:02d}", "title": title, "body": body, "source": "synthetic"})
    return Workload("long_docs", jobs=1, fraction=0.3, records=records, sentences=sum(LONG_SENTENCES))


def _heavy_tail(n: int, alpha: float = 1.2, cap: int = 160) -> list[int]:
    """Fixed Pareto quantiles, so every seed gets the same multiset."""
    return [min(cap, math.ceil((1.0 - (i + 0.5) / n) ** (-1.0 / alpha))) for i in range(n)]


def _plain_sentence(rng: random.Random) -> str:
    """No capitals after the first word, no digits: yields no entities."""
    return (
        f"The {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} lies beside the "
        f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} of the {rng.choice(NOUNS)}."
    )


def _odd_sentence(rng: random.Random, k: int) -> str:
    """Abbreviations, initials, parentheses and non-ASCII surfaces."""
    city = rng.choice(CITIES)[0]
    options = (
        lambda: f"Dr. {rng.choice(ACCENTED)} (b. {rng.randint(1900, 1990)} in St. {rng.choice(LAST)}) taught at the {rng.choice(ORGS)}.",
        lambda: f"{rng.choice('ABCDEFGH')}. {rng.choice('JKLMNOP')}. {rng.choice(LAST)} joined the U.S. office in {city} on {_date(rng)}.",
        lambda: f"Prof. {rng.choice(ACCENTED)} compared {rng.randint(2, 90)} maps (see Vol. {rng.randint(1, 9)}, Fig. {rng.randint(1, 30)}) with Mr. {rng.choice(LAST)}.",
        lambda: f"The café in {city} served {rng.choice(ACCENTED)} and the {rng.choice(ORGS)} e.g. during the festival.",
        lambda: _rich_sentence(rng, k),
    )
    return options[k % len(options)]()


def mixed_docs(seed: int) -> Workload:
    """Heterogeneous corpus reaching the branches the other two skip.

    Ten document roles rotate by position over fixed heavy-tailed sentence
    counts, so each role gets the same lengths for every seed. Roles 0 to 4
    each trip one skip rule or ingest rewrite; the rest are entity-rich text
    with odd tokens.
    """
    rng = random.Random(seed)
    counts = _heavy_tail(MIXED_DOCS)
    records = []
    sentences = 0
    for i, n in enumerate(counts):
        role = i % 10
        title = f"{_name(rng)} notes {i}"
        if role == 0:  # no entities: gist, flashcards, cloze and multichoice skip
            parts = [_plain_sentence(rng) for _ in range(n)]
        elif role == 1:  # one surface, fewer than option_count: multichoice skips
            who = _name(rng)
            parts = [f"{who} walked beside the {rng.choice(NOUNS)} of the {rng.choice(NOUNS)}." for _ in range(n)]
        elif role == 2:  # single sentence: no corrupted NLI statement
            n = 1
            parts = [_rich_sentence(rng, rng.randrange(5))]
        elif role == 3:  # no sentence ends with a period: completion skips
            parts = [f"Was {_name(rng)} ever seen near {rng.choice(CITIES)[0]}?" if k % 2 else f"What a day for {_name(rng)}!" for k in range(n)]
        else:
            parts = [_odd_sentence(rng, k + i) for k in range(n)]
        body = " ".join(parts)
        if role == 4:  # raw wiki header; ingest keeps the first paragraph only
            title = f"<{title} - Wikipedia>"
            tail = " ".join(_rich_sentence(rng, k) for k in range(3))
            body = f"{body}\n\n{tail}\n\nSee also: {rng.choice(ORGS)}."
        sentences += n
        records.append({"title": title, "body": body, "source": "synthetic"})
    return Workload("mixed_docs", jobs=2, fraction=0.15, records=records, sentences=sentences, discard_share=0.25)


BUILDERS = {"short_docs": short_docs, "long_docs": long_docs, "mixed_docs": mixed_docs}


def build(workload: str, seed: int) -> Workload:
    return BUILDERS[workload](seed)


# ---------------------------------------------------------------- eval inputs

NLI_OPTIONS = ("Yes", "It's impossible to say", "No")
FILLERS = ["however", "perhaps", "notably", "indeed", "also", "record", "study", "there"]


def _perturb(gold: str, rng: random.Random) -> str:
    if rng.random() < 0.2:
        return gold
    out = []
    for token in gold.split():
        roll = rng.random()
        if roll < 0.08:
            continue
        if roll < 0.16:
            out.append(rng.choice(FILLERS))
        elif roll < 0.20:
            out.extend((token, token))
        else:
            out.append(token)
    return " ".join(out) or rng.choice(FILLERS)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def write_eval_inputs(out: Path, name: str, seed: int) -> dict:
    """Predictions, references and logprobs from the test side of a split.

    Golds are the test-side QA answers plus the NLI task examples of the
    test documents; predictions are seeded perturbations of the golds;
    logprobs are seeded, one per test-document word.
    """
    rng = random.Random(f"{seed}:eval")
    test_docs = _read_jsonl(out / f"{name}_test.jsonl")
    test_ids = {doc["id"] for doc in test_docs}
    refs, preds = [], []
    for k, pair in enumerate(_read_jsonl(out / f"{name}_qa_test.jsonl")):
        item = f"{pair['doc_id']}:qa{k}"
        refs.append({"item_id": item, "golds": [pair["answer"]]})
        preds.append({"item_id": item, "prediction": _perturb(pair["answer"], rng)})
    lines = (out / f"{name}_tasks.jsonl").read_text("utf-8").splitlines()[:-1]
    for k, line in enumerate(lines):
        payload = json.loads(line)["payload"]
        if payload["kind"] != "nli" or payload["doc_id"] not in test_ids:
            continue
        item = f"{payload['doc_id']}:nli{k}"
        refs.append({"item_id": item, "golds": [payload["answer"]], "gold_label": payload["answer"]})
        guess = payload["answer"] if rng.random() < 0.75 else rng.choice(NLI_OPTIONS)
        preds.append({"item_id": item, "prediction": guess})
    logprobs = [
        {"doc_id": doc["id"], "logprobs": [-round(rng.uniform(0.01, 6.0), 4) for _ in doc["body"].split()]}
        for doc in test_docs
    ]
    paths = {}
    for key, rows in (("predictions", preds), ("references", refs), ("logprobs", logprobs)):
        paths[key] = out / f"eval_{key}.jsonl"
        paths[key].write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), "utf-8")
    paths["items"] = len(refs)
    paths["golds"] = {r["item_id"]: r["golds"] for r in refs}
    paths["preds"] = {p["item_id"]: p["prediction"] for p in preds}
    return paths
