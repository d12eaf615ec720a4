"""Output checks, run outside the timed regions.

Everything here recomputes chunkcheck's outputs from the generated inputs
without calling chunkcheck: chunk packing per README "Scoring semantics",
the overlap backend's formula, the stand-in server's formula and the
metrics by their plain O(n^2) definitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

from standin import logits_for

_WORD = re.compile(r"[a-z0-9']+")
TOL = 1e-9


class CheckFailed(Exception):
    pass


def unit_line(unit: dict) -> str:
    return f"{unit['speaker']}: {unit['text']}" if unit.get("speaker") else unit["text"]


def pack(units: list[dict], budget: int) -> list[str]:
    """Greedy left-to-right packing under a whitespace-token budget; a unit
    over budget is a chunk of its own."""
    lines = [unit_line(u) for u in units]
    counts = [len(line.split()) for line in lines]
    chunks, i = [], 0
    while i < len(lines):
        total, j = counts[i], i + 1
        while j < len(lines) and total + counts[j] <= budget:
            total += counts[j]
            j += 1
        chunks.append("\n".join(lines[i:j]))
        i = j
    return chunks


def overlap_prob(premise: str, hypothesis: str) -> float:
    hyp = set(_WORD.findall(hypothesis.lower()))
    prem = set(_WORD.findall(premise.lower()))
    return len(hyp & prem) / len(hyp) if hyp else 0.0


def standin_prob(premise: str, hypothesis: str) -> float:
    yes, no = logits_for(premise, hypothesis)
    return 1.0 / (1.0 + math.exp(no - yes))


def digest(report: dict) -> str:
    """sha256 of the report without ``meta``; the stand-in's port, which
    changes per run, is masked."""
    stripped = {k: v for k, v in report.items() if k != "meta"}
    if stripped.get("config", {}).get("endpoint"):
        stripped["config"] = {**stripped["config"], "endpoint": "<stand-in>"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_claim_scores(claim_rows, docs_by_id, claims_by_id, budget, prob, sample) -> int:
    """Sampled scores equal the max over the claim's chunks of ``prob``."""
    for row in sample(claim_rows):
        claim = claims_by_id[row["claim_id"]]
        chunks = pack(docs_by_id[claim["doc_id"]]["units"], budget)
        want = max(prob(c, claim["text"]) for c in chunks)
        require(abs(row["score"] - want) <= TOL,
                f"claim {row['claim_id']}: score {row['score']} != recomputed {want}")
    return len(sample(claim_rows))


def expected_calls(claims, docs_by_id, budget) -> int:
    return sum(len(pack(docs_by_id[c["doc_id"]]["units"], budget)) for c in claims)


# --- metrics by definition ------------------------------------------------------


def naive_roc_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


def naive_kendall_tau_b(x, y) -> float:
    n = len(x)
    s = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = _sign(x[i] - x[j]), _sign(y[i] - y[j])
            s += a * b
            tx += a == 0
            ty += b == 0
    n0 = n * (n - 1) / 2
    return s / math.sqrt((n0 - tx) * (n0 - ty))


def _f1(tp, fp, fn) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def naive_f1_macro_optimal(scores, labels) -> tuple[float, float]:
    uniq = sorted(set(scores))
    cands = [uniq[0] - 0.5] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] + [uniq[-1] + 0.5]
    best, best_t = -1.0, 0.0
    for t in cands:
        tp = fp = fn = tn = 0
        for s, y in zip(scores, labels):
            pred = s >= t
            tp += pred and y
            fp += pred and not y
            fn += (not pred) and y
            tn += (not pred) and not y
        f1 = (_f1(tp, fp, fn) + _f1(tn, fn, fp)) / 2
        if f1 > best:
            best, best_t = f1, t
    return best, best_t


def naive_pearson(x, y) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def naive_ece(probs, labels, bins, threshold) -> float:
    total = 0.0
    for b in range(bins):
        members = [(p, y) for p, y in zip(probs, labels) if min(int(p * bins), bins - 1) == b]
        if members:
            acc = sum((p >= threshold) == y for p, y in members) / len(members)
            conf = sum(p for p, _ in members) / len(members)
            total += len(members) / len(probs) * abs(acc - conf)
    return total


def check_eval_results(got: dict, scores, labels) -> None:
    """An EvalReport-shaped dict against the definitions."""
    y = [1.0 if v else 0.0 for v in labels]
    f1, threshold = naive_f1_macro_optimal(scores, labels)
    for name, want in (("roc_auc", naive_roc_auc(scores, labels)),
                       ("kendall_tau", naive_kendall_tau_b(scores, y)),
                       ("pearson", naive_pearson(scores, y)),
                       ("f1_macro", f1), ("optimal_threshold", threshold)):
        require(abs(got[name] - want) <= TOL, f"{name}: {got[name]} != by definition {want}")
