"""Seeded synthetic museum catalog: corpus, schema, config and query set.

Every document describes one artifact. Its three fact sentences match the
stub extraction rules of the museum fixture (DatedTo, UnearthedIn, HousedIn),
so each document yields exactly one artifact node and three edges. Documents
are built from paragraphs of 850-950 characters; with the fixture's chunking
(1200 characters, 200 overlap) every paragraph becomes one chunk. The facts
open the first paragraph, as in the fixture's one-chunk entries, so the
overlap copied into the next chunk never cuts a fact sentence in two; the
other chunks hold descriptive text and one theme sentence somewhere.

The query set cycles through four kinds in a fixed order:

    inference    one artifact, asks for its museum or its province
    comparison   two artifacts, asks whether they share a period
    temporal     one artifact, asks for its period
    vague        no catalog name; paraphrases one document's theme sentence

Every gold evidence string is a sentence copied verbatim from the corpus.
The same (seed, docs, chunks_per_doc, queries) always gives the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import yaml

ERAS = ("Shang", "Western Zhou", "Spring and Autumn", "Warring States",
        "Qin", "Han", "Tang", "Song")
PROVINCES = ("Hubei", "Hunan", "Henan", "Shaanxi", "Shanxi", "Hebei",
             "Anhui", "Jiangsu", "Zhejiang", "Sichuan", "Gansu", "Shandong")
MUSEUMS = ("Provincial Museum", "Palace Museum", "National Museum",
           "Capital Museum", "Shanghai Museum", "Nanjing Museum")

_ADJECTIVES = ("Gilded", "Lacquered", "Carved", "Painted", "Inlaid", "Glazed",
               "Bronze", "Jade", "Silver", "Ivory", "Celadon", "Crimson",
               "Twin", "Great", "Small", "Horned", "Winged", "Coiled",
               "Stepped", "Hollow", "Banded", "Fluted", "Gold", "Iron")
_OBJECTS = ("Tripod", "Cup", "Sword", "Mirror", "Bell", "Banner", "Horse",
            "Vessel", "Lamp", "Censer", "Seal", "Comb", "Axe", "Drum", "Vase",
            "Bowl", "Ewer", "Crown", "Belt Hook", "Dagger", "Chariot Fitting",
            "Hairpin", "Figurine", "Screen")
_OWNERS = ("Goujian", "Yi", "Chu", "Dai", "Wu", "Lu", "Cai", "Zeng", "Ba",
           "Shu", "Yan", "Zhao", "Wei", "Xu", "Teng", "Ju", "Fuhao", "Mawangdui",
           "Sanxingdui", "Leigudun", "Erlitou", "Baoji", "Xinzheng", "Linzi")

_MOTIFS = ("dragon", "phoenix", "cloud", "thunder", "tiger", "cicada",
           "lotus", "fish", "crane", "serpent", "deer", "owl", "wave",
           "spiral", "leaf", "ram", "bird", "flame", "mountain", "vine")
_PARTS = ("rim", "handle", "base", "lid", "shoulder", "foot", "spout",
          "neck", "blade", "border")
_RITES = ("harvest", "ancestor", "wedding", "funeral", "hunting", "rain",
          "archery", "banquet", "spring", "oath")

_FILLER_SUBJECTS = ("the surface", "the glaze", "the patina", "the casting",
                    "the inscription", "the border", "the inner wall",
                    "the outer face", "the seam", "the fitting")
_FILLER_VERBS = ("shows", "keeps", "bears", "reveals", "retains", "displays")
_FILLER_OBJECTS = ("fine tool marks", "a faint green bloom", "traces of red pigment",
                   "a worn polish", "small casting flaws", "an even thickness",
                   "a pale mineral crust", "shallow incised lines",
                   "a soft matte sheen", "patches of old repair")
_FILLER_TAILS = ("from long burial", "under raking light", "near the lower edge",
                 "after careful cleaning", "along one side",
                 "in the conservation record", "beneath later dirt",
                 "where it was handled most")

_PARAGRAPH_MIN = 850
_PARAGRAPH_MAX = 950
_FACT_LIMIT = 500   # facts stay well before the last 200 characters

SCHEMA = {
    "version": "museum-1",
    "entity_types": [
        {"name": "Artifact", "description": "A physical object in the collection."},
        {"name": "Period", "description": "A historical era."},
        {"name": "Location", "description": "A province or excavation site."},
        {"name": "Museum", "description": "An institution that holds artifacts."},
    ],
    "relations": [
        {"name": "DatedTo", "domain": ["Artifact"], "range": ["Period"],
         "description": "The era an artifact was made in."},
        {"name": "UnearthedIn", "domain": ["Artifact"], "range": ["Location"],
         "description": "Where an artifact was excavated."},
        {"name": "HousedIn", "domain": ["Artifact"], "range": ["Museum"],
         "description": "The institution holding an artifact."},
    ],
}


def make_config(multihop_root: str) -> dict:
    """The museum fixture's config with the generated paths and root."""
    return {
        "schema": "schema.json",
        "corpus": "corpus.jsonl",
        "index_dir": "index",
        "chunking": {"max_chars": 1200, "overlap_chars": 200},
        "indexing": {
            "attribute_relations": {"DatedTo": "era", "UnearthedIn": "region"},
            "max_workers": 2,
        },
        "clustering": {
            "alpha": 0.5,
            "tau": 0.3,
            "min_community_size": 2,
            "attribute_scope": "full",
            "attribute_keys": ["era"],
            "multihop": [{"root": multihop_root, "hops": 2}],
        },
        "fusion": {"w1": 4.0, "w2": 1.0, "khop": 2, "topk_candidates": 10, "final_k": 3},
        "clients": {
            "mode": "stub",
            "embed_dim": 64,
            "stub_rules": [
                {"pattern": "(?P<head>[A-Z][A-Za-z ]+?) dates to the (?P<tail>[A-Z][A-Za-z ]+?) period",
                 "head_type": "Artifact", "relation": "DatedTo", "tail_type": "Period", "score": 2.0},
                {"pattern": "(?P<head>[A-Z][A-Za-z ]+?) was unearthed in (?P<tail>[A-Z][a-z]+) Province",
                 "head_type": "Artifact", "relation": "UnearthedIn", "tail_type": "Location", "score": 1.5},
                {"pattern": "(?P<head>[A-Z][A-Za-z ]+?) is housed in the (?P<tail>[A-Z][A-Za-z ]+?)\\.",
                 "head_type": "Artifact", "relation": "HousedIn", "tail_type": "Museum", "score": 1.0},
            ],
        },
    }


def _filler(rng: random.Random) -> str:
    return (f"{rng.choice(_FILLER_SUBJECTS).capitalize()} {rng.choice(_FILLER_VERBS)} "
            f"{rng.choice(_FILLER_OBJECTS)} {rng.choice(_FILLER_TAILS)}.")


def _paragraph(rng: random.Random, facts: list[str]) -> str:
    sentences = list(facts)
    text = " ".join(sentences)
    if len(text) > _FACT_LIMIT:
        raise ValueError("fact sentences do not fit the first half of a paragraph")
    target = rng.randint(_PARAGRAPH_MIN, _PARAGRAPH_MAX)
    while True:
        sentence = _filler(rng)
        if len(text) + 1 + len(sentence) > _PARAGRAPH_MAX:
            break
        sentences.append(sentence)
        text = " ".join(sentences)
        if len(text) >= target:
            break
    return text


def _document(rng: random.Random, entry: int, artifact: dict, paragraphs: int) -> str:
    name = artifact["name"]
    facts: list[list[str]] = [[] for _ in range(paragraphs)]
    facts[0] += [f"Catalog entry {entry}. {name} is a {artifact['kind']} kept in the catalog.",
                 artifact["dated"], artifact["unearthed"], artifact["housed"]]
    facts[rng.randrange(paragraphs)].append(artifact["theme"])
    return "\n\n".join(_paragraph(rng, group) for group in facts)


def _artifacts(rng: random.Random, docs: int) -> list[dict]:
    names = [f"{a} {o} of {w}" for a in _ADJECTIVES for o in _OBJECTS for w in _OWNERS]
    themes = [(m, p, r) for m in _MOTIFS for p in _PARTS for r in _RITES]
    if docs > min(len(names), len(themes)):
        raise ValueError(f"at most {min(len(names), len(themes))} documents")
    artifacts = []
    for name, (motif, part, rite) in zip(rng.sample(names, docs), rng.sample(themes, docs)):
        era, province, museum = rng.choice(ERAS), rng.choice(PROVINCES), rng.choice(MUSEUMS)
        artifacts.append({
            "name": name,
            "kind": name.split(" of ")[0].lower(),
            "era": era,
            "province": province,
            "museum": museum,
            "motif": motif,
            "part": part,
            "rite": rite,
            "dated": f"{name} dates to the {era} period.",
            "unearthed": f"{name} was unearthed in {province} Province.",
            "housed": f"{name} is housed in the {museum}.",
            "theme": f"The {motif} motif on its {part} recalls {rite} rites.",
        })
    return artifacts


def _fact(sentence: str) -> str:
    return sentence.rstrip(".")


def _queries(rng: random.Random, artifacts: list[dict], count: int) -> list[dict]:
    records = []
    for i in range(count):
        kind = ("inference", "comparison", "temporal", "vague")[i % 4]
        a = rng.choice(artifacts)
        if kind == "inference" and (i // 4) % 2 == 0:
            record = {"query": f"Which museum houses the {a['name']}?", "question_type": "inference",
                      "evidence_list": [{"fact": _fact(a["housed"])}], "answer": f"The {a['museum']}."}
        elif kind == "inference":
            record = {"query": f"Where was the {a['name']} unearthed?", "question_type": "inference",
                      "evidence_list": [{"fact": _fact(a["unearthed"])}], "answer": f"{a['province']} Province."}
        elif kind == "comparison":
            b = rng.choice([x for x in artifacts if x is not a] or [a])
            same = "Yes" if a["era"] == b["era"] else "No"
            record = {"query": f"Do the {a['name']} and the {b['name']} date to the same period?",
                      "question_type": "comparison",
                      "evidence_list": [{"fact": _fact(a["dated"])}, {"fact": _fact(b["dated"])}],
                      "answer": f"{same}: {a['era']} and {b['era']}."}
        elif kind == "temporal":
            record = {"query": f"Which period does the {a['name']} date to?", "question_type": "temporal",
                      "evidence_list": [{"fact": _fact(a["dated"])}], "answer": f"The {a['era']} period."}
        else:
            # no catalog name, so the query links no entity and leans on communities
            record = {"query": f"Which pieces show {a['motif']} decoration on the {a['part']} "
                               f"tied to {a['rite']} rites?",
                      "question_type": "inference",
                      "evidence_list": [{"fact": _fact(a["theme"])}], "answer": a["name"]}
        record["id"] = f"q{i}"
        record["kind"] = kind
        records.append(record)
    return records


def generate(out_dir: Path, seed: int, docs: int, chunks_per_doc: int, queries: int) -> dict:
    """Write corpus.jsonl, schema.json, config.yaml and queries.json into
    ``out_dir`` and return the expected graph sizes."""
    if docs < 2 or chunks_per_doc < 1 or queries < 1:
        raise ValueError("need docs >= 2, chunks_per_doc >= 1 and queries >= 1")
    rng = random.Random(f"perfbench:{seed}:{docs}:{chunks_per_doc}:{queries}")
    artifacts = _artifacts(rng, docs)
    lines = []
    for entry, artifact in enumerate(artifacts, start=1):
        text = _document(rng, entry, artifact, chunks_per_doc)
        lines.append(json.dumps({"doc_id": f"doc{entry:05d}", "text": text}, ensure_ascii=False))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "corpus.jsonl").write_text("\n".join(lines) + "\n", "utf-8")
    (out_dir / "schema.json").write_text(json.dumps(SCHEMA, indent=2) + "\n", "utf-8")
    config = make_config(artifacts[0]["name"])
    (out_dir / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False, width=1000), "utf-8")
    query_records = _queries(rng, artifacts, queries)
    (out_dir / "queries.json").write_text(json.dumps(query_records, indent=1) + "\n", "utf-8")
    tails = {a["era"] for a in artifacts} | {a["province"] for a in artifacts} | {a["museum"] for a in artifacts}
    return {"documents": docs, "chunks": docs * chunks_per_doc,
            "nodes": docs + len(tails), "edges": 3 * docs, "queries": queries}

