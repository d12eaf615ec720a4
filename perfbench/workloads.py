"""Seeded input generators and command sequences for the three workloads.

Each workload is a corpus split into shards of similar size. A round runs
every phase of the workload on one shard, each phase as the command lines a
user would type against that shard's files. The shapes are fixed; the seed
decides only the text, which unit a claim is drawn from and the order of
document sizes, so two seeds give about the same amount of work.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BUDGET = 512
SWEEP_BUDGETS = (64, 128, 512)

# Stand-in model server settings for remote-latency.
SERVICE_DELAY_MS = 10.0
FAIL_SHARE = 0.02  # hashed share of prompts answered once with 503
RETRY_BACKOFF_S = 0.01

_SYLLABLES = (
    "ka lo mi ra te su no vi pe da ro li ga fu ne sa to ma ri ko be ha zu ye "
    "an el or un is ar en ol ut ir"
).split()
_SPEAKERS = ("Mara", "Ito", "Chen", "Vega", "Ruiz", "Okafor")


@dataclass
class Command:
    argv: list[str]
    report: Path
    claims: int  # claim scorings the command performs


@dataclass
class Phase:
    """A timed step of a round: chunkcheck commands, or for ``metrics`` (no
    commands) calls into the public metrics API on ``claims`` scores."""

    name: str
    commands: list[Command] = field(default_factory=list)
    metric_scores: list[float] = field(default_factory=list)
    metric_labels: list[bool] = field(default_factory=list)

    @property
    def claims(self) -> int:
        return sum(c.claims for c in self.commands) or len(self.metric_scores)


@dataclass
class Shard:
    dir: Path
    documents: list[dict]
    claims: list[dict]
    phases: list[Phase] = field(default_factory=list)

    @property
    def docs_path(self) -> Path:
        return self.dir / "documents.jsonl"

    @property
    def claims_path(self) -> Path:
        return self.dir / "claims.jsonl"


@dataclass
class Workload:
    name: str
    documents: list[dict]
    claims: list[dict]
    backend_flags: list[str]
    concurrency: int
    shards: list[Shard]
    docs_path: Path  # the whole corpus, for the set-up measurement
    claims_path: Path


def _lexicon(rng: random.Random, size: int) -> list[str]:
    words = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))))
    return sorted(words)


class _Text:
    """Zipf-weighted sentences over a seeded lexicon, so common words recur
    across chunks the way function words do in real text."""

    def __init__(self, rng: random.Random, size: int = 3000):
        self.rng = rng
        self.words = _lexicon(rng, size)
        self.weights = [1.0 / (rank + 1) for rank in range(size)]

    def sentence(self, lo: int, hi: int) -> str:
        n = self.rng.randint(lo, hi)
        words = self.rng.choices(self.words, weights=self.weights, k=n)
        return " ".join(words).capitalize() + "."

    def claim_from(self, unit_text: str, supported: bool) -> str:
        """Keep most source words when supported; swap in foreign words otherwise."""
        src = unit_text.rstrip(".").lower().split()
        keep = self.rng.randint(max(3, len(src) // 2), len(src))
        out = [src[i] for i in sorted(self.rng.sample(range(len(src)), keep))]
        swaps = self.rng.randint(0, 2) if supported else self.rng.randint(3, 6)
        for _ in range(swaps):
            out[self.rng.randrange(len(out))] = self.rng.choice(self.words)
        return " ".join(out).capitalize() + "."

    def claims_for(self, doc: dict, n: int, seen: set[str], id_width: int = 2) -> list[dict]:
        """n claims with texts not in ``seen``, each drawn from one unit of ``doc``."""
        out = []
        for c in range(n):
            src = self.rng.randrange(len(doc["units"]))
            supported = self.rng.random() < 0.5
            while True:
                text = self.claim_from(doc["units"][src]["text"], supported)
                if text not in seen:
                    seen.add(text)
                    break
            out.append({"id": f"{doc['id']}-c{c:0{id_width}d}", "doc_id": doc["id"],
                        "text": text, "label": supported, "relevant_units": [src]})
        return out


def _doc(doc_id: str, text: _Text, n_units: int, speakers: bool = False,
         long_turn_share: float = 0.0) -> dict:
    units = []
    for i in range(n_units):
        long_turn = long_turn_share and text.rng.random() < long_turn_share
        units.append({"speaker": _SPEAKERS[i % len(_SPEAKERS)] if speakers else None,
                      "text": text.sentence(70, 90) if long_turn else text.sentence(8, 18)})
    return {"id": doc_id, "units": units}


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _build(name, groups, work: Path, backend_flags, concurrency, phases) -> Workload:
    """Write the whole corpus and one file pair per shard; ``phases(shard,
    common)`` names the shard's phases, where ``common(report)`` gives the
    flags every command shares."""
    documents = [d for docs, _ in groups for d in docs]
    claims = [c for _, cl in groups for c in cl]
    wl = Workload(name, documents, claims, list(backend_flags), concurrency, [],
                  work / "documents.jsonl", work / "claims.jsonl")
    _write_jsonl(wl.docs_path, documents)
    _write_jsonl(wl.claims_path, claims)
    for i, (docs, cl) in enumerate(groups):
        shard = Shard(work / f"shard{i:02d}", docs, cl)
        shard.dir.mkdir()
        _write_jsonl(shard.docs_path, docs)
        _write_jsonl(shard.claims_path, cl)

        def common(report: str, shard=shard) -> list[str]:
            return ["--documents", str(shard.docs_path), "--claims", str(shard.claims_path),
                    "--out", str(shard.dir / report), *backend_flags,
                    "--budget", str(BUDGET), "--concurrency", str(concurrency)]

        shard.phases = phases(i, shard, common)
        wl.shards.append(shard)
    return wl


# --- long-docs: 600-unit documents, ~15 chunks per claim at budget 512 ----------

LONG_DOCS = 40
LONG_UNITS = 600
LONG_CLAIMS_PER_DOC = 50


def _long_docs(rng: random.Random, work: Path) -> Workload:
    text = _Text(rng)
    seen: set[str] = set()
    groups = []
    for d in range(LONG_DOCS):
        doc = _doc(f"long{d:02d}", text, LONG_UNITS)
        groups.append(([doc], text.claims_for(doc, LONG_CLAIMS_PER_DOC, seen, id_width=3)))

    def phases(_i, shard: Shard, common) -> list[Phase]:
        n = len(shard.claims)
        return [
            Phase("score", [Command(["score", *common("score.json")],
                                    shard.dir / "score.json", n)]),
            Phase("retrieve", [Command(["retrieve", *common("retrieve.json"),
                                        "--premise-cap", str(BUDGET)],
                                       shard.dir / "retrieve.json", n)]),
        ]

    return _build("long-docs", groups, work, ["--backend", "overlap"], 1, phases)


# --- remote-latency: 40..370-unit documents against the stand-in server -------

REMOTE_DOC_UNITS = tuple(range(40, 371, 30))  # 12 sizes, 1 to 10 chunks per claim
REMOTE_COPIES = 3
REMOTE_CLAIMS_PER_DOC = 6


def _remote_latency(rng: random.Random, work: Path, endpoint: str, concurrency: int) -> Workload:
    text = _Text(rng)
    seen: set[str] = set()
    sizes = list(REMOTE_DOC_UNITS)
    groups = []
    # Each shard pairs a short document with a long one, so shards weigh alike.
    pairs = [(sizes[i], sizes[-1 - i]) for i in range(len(sizes) // 2)] * REMOTE_COPIES
    rng.shuffle(pairs)
    for s, pair in enumerate(pairs):
        docs = [_doc(f"remote{s:02d}{'ab'[k]}", text, size) for k, size in enumerate(pair)]
        groups.append((docs, [c for doc in docs
                              for c in text.claims_for(doc, REMOTE_CLAIMS_PER_DOC, seen)]))
    backend = ["--backend", "remote", "--endpoint", endpoint, "--backoff", str(RETRY_BACKOFF_S)]

    def phases(_i, shard: Shard, common) -> list[Phase]:
        return [Phase("score", [Command(["score", *common("score.json")],
                                        shard.dir / "score.json", len(shard.claims))])]

    return _build("remote-latency", groups, work, backend, concurrency, phases)


# --- eval-sweep: short labelled dialogues, repeated claim texts, budget sweep -----

EVAL_SHARDS = 10
EVAL_DOCS_PER_SHARD = 30
EVAL_UNITS = (16, 24)  # about 20 turns: one chunk at 512, several at 64
EVAL_CLAIMS_PER_DOC = 5
EVAL_LONG_TURN_SHARE = 0.02  # turns over 64 tokens: oversized chunks at budget 64
METRICS_N = 1000


def _eval_sweep(rng: random.Random, work: Path) -> Workload:
    text = _Text(rng)
    groups, metric_sets = [], []
    # Half the documents repeat one claim text, half repeat two: 30% of claims.
    repeat_counts = [1, 2] * (EVAL_SHARDS * EVAL_DOCS_PER_SHARD // 2)
    rng.shuffle(repeat_counts)
    for s in range(EVAL_SHARDS):
        docs, claims = [], []
        for d in range(EVAL_DOCS_PER_SHARD):
            doc = _doc(f"dlg{s:02d}{d:02d}", text, rng.randint(*EVAL_UNITS), speakers=True,
                       long_turn_share=EVAL_LONG_TURN_SHARE)
            docs.append(doc)
            repeats = repeat_counts[s * EVAL_DOCS_PER_SHARD + d]
            made = text.claims_for(doc, EVAL_CLAIMS_PER_DOC - repeats, set())
            for c in range(repeats):
                made.append({**rng.choice(made), "id": f"{doc['id']}-r{c}"})
            rng.shuffle(made)
            claims.extend(made)
        groups.append((docs, claims))
        # Continuous scores, as a real model gives: every score distinct.
        labels = [rng.random() < 0.5 for _ in range(METRICS_N)]
        scores = [min(1.0, max(0.0, rng.gauss(0.62 if y else 0.38, 0.18))) for y in labels]
        metric_sets.append((scores, labels))
    budgets = ",".join(str(b) for b in SWEEP_BUDGETS)

    def phases(i, shard: Shard, common) -> list[Phase]:
        n = len(shard.claims)
        scores, labels = metric_sets[i]
        return [
            Phase("evaluate", [Command(["evaluate", *common("evaluate.json"),
                                        "--retrieval-recall"], shard.dir / "evaluate.json", n)]),
            # The sweep counts the claim x budget scorings asked for; calibrate's
            # --curve-csv rescoring at the configured budget is extra work.
            Phase("sweep", [
                Command(["calibrate", *common("calibrate.json"), "--budgets", budgets,
                         "--curve-csv", str(shard.dir / "curve.csv")],
                        shard.dir / "calibrate.json", n * len(SWEEP_BUDGETS)),
                Command(["bench", *common("bench.json"), "--budgets", budgets],
                        shard.dir / "bench.json", n * len(SWEEP_BUDGETS)),
            ]),
            Phase("metrics", metric_scores=scores, metric_labels=labels),
        ]

    return _build("eval-sweep", groups, work, ["--backend", "overlap"], 1, phases)


def generate(name: str, seed: int, work: Path, endpoint: str = "", concurrency: int = 1):
    rng = random.Random(f"{name}:{seed}")
    if name == "long-docs":
        return _long_docs(rng, work)
    if name == "remote-latency":
        return _remote_latency(rng, work, endpoint, concurrency)
    if name == "eval-sweep":
        return _eval_sweep(rng, work)
    raise ValueError(name)


def repeated_claim_share(claims: list[dict]) -> float:
    seen, repeated = set(), 0
    for c in claims:
        key = (c["doc_id"], c["text"])
        repeated += key in seen
        seen.add(key)
    return repeated / len(claims)


def histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}
