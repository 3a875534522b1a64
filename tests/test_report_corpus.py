"""Every CLI report of the checked-in corpus, replayed against the current code.

Exit codes, stderr, keys, key order, strings and array shapes must match
exactly; numbers to 1e-13 absolute.  `make_report_corpus.py` writes the corpus.
"""

import gzip
import json
import math

from make_report_corpus import CORPUS, cases, run_case

NUMBER_TOL = 1e-13


def _parsed(text):
    """stdout as data: a JSON report, or a sweep's tab-separated table then its JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        table, sep, rest = text.partition("\n[")
        rows = [[_cell(c) for c in line.split("\t")] for line in table.splitlines()]
        return [rows, json.loads(sep[1:] + rest) if sep else None]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _mismatch(old, new, path="$"):
    """JSON path of the first difference between two parsed outputs, else None."""
    if isinstance(old, float) and type(new) is float:
        same = abs(old - new) <= NUMBER_TOL or (math.isnan(old) and math.isnan(new))
        return None if same else "%s: %r -> %r" % (path, old, new)
    if type(old) is not type(new):
        return "%s: %s -> %s" % (path, type(old).__name__, type(new).__name__)
    if isinstance(old, dict):
        if list(old) != list(new):
            return "%s: keys %s -> %s" % (path, list(old), list(new))
        pairs = [(old[k], new[k], "%s.%s" % (path, k)) for k in old]
    elif isinstance(old, list):
        if len(old) != len(new):
            return "%s: length %d -> %d" % (path, len(old), len(new))
        pairs = [(a, b, "%s[%d]" % (path, i)) for i, (a, b) in enumerate(zip(old, new))]
    else:
        return None if old == new else "%s: %r -> %r" % (path, old, new)
    return next(filter(None, (_mismatch(a, b, p) for a, b, p in pairs)), None)


def test_reports_match_the_corpus(monkeypatch):
    monkeypatch.delenv("CTC_SIM_TOLERANCE", raising=False)
    with gzip.open(CORPUS, "rt", encoding="utf-8") as fh:
        corpus = json.load(fh)
    assert [c["id"] for c in corpus] == [case_id for case_id, _, _ in cases()]
    problems, identical = [], 0
    for case in corpus:
        got = run_case(case["argv"], case["doc"])
        identical += got == {k: case[k] for k in ("code", "stdout", "stderr")}
        for key in ("code", "stderr"):
            if got[key] != case[key]:
                problems.append("%s: %s %r -> %r" % (case["id"], key, case[key], got[key]))
        where = _mismatch(_parsed(case["stdout"]), _parsed(got["stdout"]))
        if where:
            problems.append("%s: stdout %s" % (case["id"], where))
    print("%d of %d reports byte-identical to the corpus" % (identical, len(corpus)))
    assert not problems, "\n".join(problems[:20])
