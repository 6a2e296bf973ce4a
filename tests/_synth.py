"""Procedural synthetic corpora for property and acceptance tests."""

import random

FIRST = [
    "Alice", "Brandon", "Carla", "Derek", "Elena", "Felix", "Grace", "Hugo",
    "Irene", "Jonas", "Katja", "Liam", "Mona", "Nadia", "Oscar", "Petra",
    "Quinn", "Rosa", "Stefan", "Tara",
]
LAST = [
    "Abbott", "Becker", "Castillo", "Dunn", "Eriksen", "Fontaine", "Garza",
    "Holt", "Ivanova", "Jansen", "Keller", "Lindgren", "Moreau", "Novak",
    "Ortega", "Palmer", "Quintero", "Reyes", "Salomon", "Tanaka",
]
CITIES = [
    ("Lisbon", "Portuguese"), ("Oslo", "Norwegian"), ("Madrid", "Spanish"),
    ("Vienna", "Austrian"), ("Prague", "Czech"), ("Dublin", "Irish"),
    ("Zagreb", "Croatian"), ("Warsaw", "Polish"), ("Helsinki", "Finnish"),
    ("Athens", "Greek"),
]
ORGS = [
    "Northgate University", "Harbor Lane Institute", "Silver Oak College",
    "Crestfield Academy", "Bellmont Conservatory", "Eastbrook Polytechnic",
    "Rivermist School", "Welland Observatory",
]
PROFESSIONS = [
    "painter", "novelist", "architect", "botanist", "composer", "historian",
    "photographer", "sculptor", "cartographer", "violinist",
]
MONTHS = [
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
]


def synthetic_records(n: int, seed: int = 0) -> list[dict]:
    """n unique-title documents; every doc supports all nine generators."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        fn = FIRST[i % len(FIRST)]
        ln = LAST[(i // len(FIRST)) % len(LAST)]
        other_fn = rng.choice([f for f in FIRST if f != fn])
        other_ln = rng.choice([l for l in LAST if l != ln])
        city, nat = rng.choice(CITIES)
        city2 = rng.choice([c for c, _ in CITIES if c != city])
        org = rng.choice(ORGS)
        prof = rng.choice(PROFESSIONS)
        day = rng.randint(1, 28)
        month = rng.choice(MONTHS)
        year = rng.randint(1900, 1999)
        year2 = rng.randint(2000, 2010)
        year3 = year2 + rng.randint(1, 9)
        year4 = rng.randint(2011, 2023)
        title = f"{fn} {ln} ({prof} {i})"
        body = (
            f"{fn} {ln} (born {day} {month} {year}) is a {nat} {prof} from {city}. "
            f"They studied at {org} between {year2} and {year3}. "
            f"In {year4} {fn} moved to {city2} with {other_fn} {other_ln}."
        )
        records.append(
            {
                "id": f"doc-{i:05d}",
                "title": title,
                "body": body,
                "source": "synthetic",
            }
        )
    return records


ACRONYMS = ["IUGG", "NATO", "MLB", "UNESCO", "CERN", "BBC"]


def long_record(sentences: int, seed: int = 0, doc_id: str = "long-0") -> dict:
    """One single-paragraph document of ``sentences`` entity- and date-dense
    sentences: names that repeat across sentences, dates in all three
    patterns (some inside name runs or one character apart), acronyms,
    numbers, and a final prepositional phrase on most sentences."""
    rng = random.Random(seed)

    def name() -> str:
        return f"{rng.choice(FIRST)} {rng.choice(LAST)}"

    templates = (
        lambda: f"{name()} met {name()} in {rng.choice(CITIES)[0]} on {rng.randint(1, 28)} {rng.choice(MONTHS)} {rng.randint(1900, 1999)}.",
        lambda: f"On {rng.choice(MONTHS)} {rng.randint(1, 28)}, {rng.randint(1900, 2023)} the {rng.choice(ORGS)} hired {name()} for {rng.choice(ACRONYMS)}.",
        lambda: f"During {rng.randint(1900, 2023)} the {rng.choice(CITIES)[1]} team of {name()} finished {rng.randint(2, 400)} projects for {rng.choice(CITIES)[0]}.",
        lambda: f"{name()} left {rng.choice(MONTHS)} {rng.randint(1, 9)} {rng.choice(MONTHS)} {rng.randint(1900, 1999)} with {rng.choice(FIRST)} {rng.choice(MONTHS)} {rng.randint(1, 28)} and {rng.choice(FIRST)} {rng.choice(MONTHS)} {rng.choice(LAST)}.",
        lambda: f"The {rng.choice(PROFESSIONS)} wrote about {rng.choice(ACRONYMS)} and {rng.randint(1, 9)},{rng.randint(100, 999)} letters to {name()}.",
        lambda: f"Later the group moved from {rng.choice(CITIES)[0]} to {rng.choice(CITIES)[0]} after {rng.randint(2, 40)} years.",
    )
    body = " ".join(templates[rng.randrange(len(templates))]() for _ in range(sentences))
    return {"id": doc_id, "title": f"{name()} chronicle", "body": body, "source": "synthetic"}


def write_jsonl(records: list[dict], path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
