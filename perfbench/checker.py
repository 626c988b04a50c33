"""Independent output checker for pktsample CLI jobs.

Stdlib only, and no pktsample code: every expected value is derived
here from the generated input (its labels by position and its class
histogram).  ``check`` raises ``CheckFailed`` on the first problem.
``CORRUPTIONS`` holds, per job kind, small edits of a valid output that
the checker must reject; the benchmark's self-test applies them.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == header, f"header is not {header}")
    return rows[1:]


def _markdown_table(text: str) -> list[list[str]]:
    """Cells of every table line after the header and its ``---`` rule."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    _require(len(lines) >= 2 and "---" in lines[1], "no markdown table")
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]


def _report_counts(text: str) -> dict[str, tuple[int, int]]:
    """``label -> (source count, sampled count)`` from an imbalance report."""
    table = _markdown_table(text)
    _require(table[0][:3] == ["Protocol", "Source Count", "Sampled Count"],
             "unexpected report columns")
    counts = {}
    for row in table[2:]:
        _require(len(row) == 5 and row[0] not in counts, f"bad report row {row}")
        counts[row[0]] = (int(row[1]), int(row[2]))
    return counts


def _check_report(text: str, hist: list[tuple[str, int]], sampled: Counter) -> None:
    counts = _report_counts(text)
    _require(list(counts) == [label for label, _ in hist], "report classes differ")
    for label, source in hist:
        _require(counts[label] == (source, sampled.get(label, 0)),
                 f"report row {label}: {counts[label]} != {(source, sampled.get(label, 0))}")


def _sample_entries(text: str, labels: list[str]) -> list[tuple[int, str, bool]]:
    entries = []
    for row in _csv_rows(text, ["source_position", "label", "synthetic"]):
        _require(len(row) == 3 and row[2] in ("true", "false"), f"bad sample row {row}")
        position = int(row[0])
        _require(1 <= position <= len(labels), f"position {position} out of range")
        _require(labels[position - 1] == row[1],
                 f"position {position} has label {labels[position - 1]!r}, not {row[1]!r}")
        entries.append((position, row[1], row[2] == "true"))
    return entries


def _strata(labels: list[str]) -> dict[str, list[int]]:
    strata: dict[str, list[int]] = {}
    for position, label in enumerate(labels, start=1):
        strata.setdefault(label, []).append(position)
    return strata


def check_analyze(texts, params, labels, hist):
    counts = _report_counts(texts[0])
    expected = Counter(labels)
    _require(set(counts) == set(expected), "analyze classes differ from the input")
    for label, (source, sampled) in counts.items():
        _require(source == sampled == expected[label],
                 f"analyze {label}: {source}/{sampled} != {expected[label]}")


def check_stratified(texts, params, labels, hist):
    entries = _sample_entries(texts[0], labels)
    interval = params["interval"]
    expected = [p for positions in _strata(labels).values() for p in positions[::interval]]
    _require([p for p, _, _ in entries] == expected,
             "stratified positions are not every I-th member of each stratum")
    _require(not any(s for _, _, s in entries), "stratified sample marks a synthetic row")
    _check_report(texts[1], hist, Counter(label for _, label, _ in entries))


def check_random(texts, params, labels, hist):
    entries = _sample_entries(texts[0], labels)
    positions = [p for p, _, _ in entries]
    _require(len(positions) == min(params["n"], len(labels)),
             f"random sample has {len(positions)} rows, not {params['n']}")
    _require(all(a < b for a, b in zip(positions, positions[1:])),
             "random positions are not distinct and ascending")
    _require(not any(s for _, _, s in entries), "random sample marks a synthetic row")
    _check_report(texts[1], hist, Counter(label for _, label, _ in entries))


def check_underover(texts, params, labels, hist):
    entries = _sample_entries(texts[0], labels)
    k = params["k"]
    per_class: dict[str, list[tuple[int, bool]]] = {}
    for position, label, synthetic in entries:
        per_class.setdefault(label, []).append((position, synthetic))
    strata = _strata(labels)
    _require(set(per_class) == set(strata), "underover sample misses a class")
    for label, rows in per_class.items():
        size = len(strata[label])
        originals = [p for p, synthetic in rows if not synthetic]
        _require(len(rows) == k, f"underover {label}: {len(rows)} records, not {k}")
        _require(len(rows) - len(originals) == max(0, k - size),
                 f"underover {label}: wrong number of synthetic records")
        _require(len(set(originals)) == len(originals),
                 f"underover {label}: an original record repeats")
        if size <= k:
            _require(originals == strata[label], f"underover {label}: originals dropped")
    _check_report(texts[1], hist, Counter(label for _, label, _ in entries))


def check_compare(texts, params, labels, hist):
    table = _markdown_table(texts[0])
    stratified = params["stratified"]
    _require(len(table[0]) == 1 + len(stratified), "compare has the wrong column count")
    rows, missing_row = table[2:-1], table[-1]
    _require([row[0] for row in rows] == [label for label, _ in hist],
             "compare rows differ from the input classes")
    _require(missing_row[0] == "missing classes", "compare lacks the missing row")
    for column, is_stratified in enumerate(stratified, start=1):
        cells = [float(row[column]) for row in rows]
        missing = int(missing_row[column])
        _require(abs(sum(cells) - 100.0) < 0.05, f"compare column {column} sums to {sum(cells)}")
        _require(missing == cells.count(0.0),
                 f"compare column {column}: missing count {missing} disagrees with cells")
        _require(not (is_stratified and missing),
                 f"stratified column {column} misses {missing} classes")


def expected_missing(counts: list[int], n: int, with_replacement: bool) -> float:
    """Expected classes absent from a uniform random n-sample."""
    population = sum(counts)

    def log_choose(total, taken):
        return math.lgamma(total + 1) - math.lgamma(taken + 1) - math.lgamma(total - taken + 1)

    total = 0.0
    for c in counts:
        if with_replacement:
            total += (1.0 - c / population) ** n
        elif c <= population - n:
            total += min(1.0, math.exp(log_choose(population - c, n) - log_choose(population, n)))
    return total


def check_oracle(texts, params, labels, hist):
    counts = [count for _, count in hist]
    rows = _csv_rows(texts[0], ["x", "observed_missing", "expected_missing"])
    _require([int(row[0]) for row in rows] == list(params["n"]), "oracle x values differ")
    for row in rows:
        n, observed, expected = int(row[0]), float(row[1]), float(row[2])
        truth = expected_missing(counts, n, params["with_replacement"])
        _require(abs(expected - truth) <= 1e-9, f"oracle n={n}: expected {expected} != {truth}")
        _require(0.0 <= observed <= len(counts), f"oracle n={n}: observed {observed} out of range")
        scaled = observed * params["trials"]
        _require(abs(scaled - round(scaled)) < 1e-6, f"oracle n={n}: observed is not a trial mean")


def check_synth(texts, params, labels, hist):
    rows = _csv_rows(texts[0], ["No.", "Protocol"])
    _require([row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)],
             "synth No. column is not 1..P")
    _require(Counter(row[1] for row in rows) == Counter(dict(params["hist"])),
             "synth label counts differ from the histogram")


CHECKS = {
    "analyze": check_analyze,
    "stratified": check_stratified,
    "random": check_random,
    "underover": check_underover,
    "compare": check_compare,
    "oracle": check_oracle,
    "synth": check_synth,
}


def check(kind: str, texts: list[str], params: dict, labels: list[str], hist) -> None:
    """Raise ``CheckFailed`` unless ``texts`` are correct outputs of the job."""
    try:
        CHECKS[kind](texts, params, labels, hist)
    except (ValueError, IndexError, KeyError) as exc:
        raise CheckFailed(f"unparsable output: {exc!r}") from None


# --- corruptions for the self-test -------------------------------------------

def _edit_line(text: str, pick, edit) -> str:
    """Apply ``edit`` to the middle line among those ``pick`` accepts."""
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines) if pick(i, line)]
    index = candidates[len(candidates) // 2]
    replacement = edit(lines[index])
    lines[index:index + 1] = [] if replacement is None else [replacement]
    return "\n".join(lines)


def _data_line(i, line):
    return i > 0 and bool(line)


def _table_line(i, line):
    return line.startswith("| ") and "---" not in line and not line.startswith("| Protocol")


def _set_field(index: int, value):
    def edit(line):
        cells = line.split(",")
        cells[index] = value(cells[index])
        return ",".join(cells)
    return edit


def _set_cell(index: int, value):
    def edit(line):
        cells = line.split(" | ")
        cells[index] = value(cells[index])
        return " | ".join(cells)
    return edit


def _other_label(label: str) -> str:
    return "ARP" if label != "ARP" else "TCP"


def _drop(line):
    return None


def _first(texts, edit_first):
    return [edit_first(texts[0]), *texts[1:]]


DROP_ROW = ("dropped row", lambda t: _first(t, lambda s: _edit_line(s, _data_line, _drop)))
WRONG_LABEL = ("wrong label", lambda t: _first(
    t, lambda s: _edit_line(s, _data_line, _set_field(1, _other_label))))

CORRUPTIONS = {
    "analyze": [
        ("dropped row", lambda t: _first(t, lambda s: _edit_line(s, _table_line, _drop))),
        ("wrong count", lambda t: _first(t, lambda s: _edit_line(
            s, _table_line, _set_cell(2, lambda c: str(int(c) + 1))))),
    ],
    "stratified": [DROP_ROW, WRONG_LABEL],
    "random": [DROP_ROW, WRONG_LABEL],
    "underover": [
        ("flipped synthetic flag", lambda t: _first(t, lambda s: _edit_line(
            s, _data_line, _set_field(2, lambda c: "true" if c == "false" else "false")))),
        DROP_ROW,
    ],
    "compare": [
        ("dropped row", lambda t: _first(t, lambda s: _edit_line(s, _table_line, _drop))),
        ("wrong missing count", lambda t: _first(t, lambda s: s.replace(
            "| missing classes | 0", "| missing classes | 1"))),
    ],
    "oracle": [
        DROP_ROW,
        ("wrong expected value", lambda t: _first(t, lambda s: _edit_line(
            s, _data_line, _set_field(2, lambda c: repr(float(c) + 1e-6))))),
    ],
    "synth": [DROP_ROW, WRONG_LABEL],
}


def accepted_corruptions(kind, texts, params, labels, hist) -> list[str]:
    """Names of the corruptions of ``kind`` the checker wrongly accepts."""
    accepted = []
    for name, corrupt in CORRUPTIONS[kind]:
        try:
            check(kind, corrupt(texts), params, labels, hist)
        except CheckFailed:
            continue
        accepted.append(name)
    return accepted
