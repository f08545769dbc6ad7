"""Show that every check in ``checks.py`` accepts a right answer and
rejects a wrong one.

    python3 perfbench/selftest.py

Right answers come from a second route where one exists (precision
matrix instead of OLS, explicit H K H products instead of the centring
identity); wrong answers are right ones nudged just past each check's
tolerance.  Exits 1 if any check accepts a wrong answer or rejects a
right one.  Needs numpy only, not the package.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks

OUT = Path(__file__).resolve().parent / "out"


def precision_pvalue(samples, i, j, cond):
    idx = [i, j, *cond]
    prec = np.linalg.inv(np.corrcoef(samples[:, idx], rowvar=False))
    r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
    z = math.sqrt(samples.shape[0] - len(cond) - 3) * math.atanh(r)
    return math.erfc(abs(z) / math.sqrt(2.0))


def matrix_hsic(x, y):
    m = x.size
    h = np.eye(m) - 1.0 / m

    def gram(v):
        d2 = (v[:, None] - v[None, :]) ** 2
        return np.exp(-d2 / (2.0 * 0.5 * np.median(d2[d2 > 0])))

    return float(np.sum((h @ gram(x) @ h) * (h @ gram(y) @ h))) / m


def cases(tmp):
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2000, 1))
    samples = np.hstack([z + rng.standard_normal((2000, 1)) for _ in range(2)] + [z, rng.standard_normal((2000, 1))])
    p = precision_pvalue(samples, 0, 1, (2,))
    yield "fisher_z", checks.check_fisher_z(samples, [(0, 1, (2,), p)]), \
        checks.check_fisher_z(samples, [(0, 1, (2,), p + 2e-8)])

    chain, collider = [(0, 1), (1, 2)], [(0, 2), (1, 2)]
    yield "d_separation", checks.check_d_separation(3, chain, [(0, 2, (1,), 1), (0, 2, (), 0)]), \
        checks.check_d_separation(3, collider, [(0, 1, (2,), 1)])

    x = rng.standard_normal(200)
    y = np.tanh(x) + 0.3 * rng.standard_normal(200)
    stat = matrix_hsic(x, y)
    yield "hsic", checks.check_hsic([(x, y, stat)]), \
        checks.check_hsic([(x, y, stat * (1 + 1e-8))])

    labels = [(0, 1, True), (1, 2, True), (2, 0, True), (3, 0, False)]
    yield "polytree forest", checks.check_polytrees(4, [([(0, 1), (1, 2)], labels)]), \
        checks.check_polytrees(4, [([(0, 1), (1, 2), (2, 0)], labels)])
    yield "polytree edges", checks.check_polytrees(4, [([(0, 1)], labels)]), \
        checks.check_polytrees(4, [([(0, 1), (3, 0)], labels)])

    yield "full-universe risk", checks.check_full_universe_risk([(90, 0.1, 0.1), (10, 0.2, 0.1)], 90), \
        checks.check_full_universe_risk([(90, 0.1, 0.1 + 1e-16)], 90)

    h = checks.vc_polytrees(10)
    bound = 2.0 * math.sqrt((h * (math.log(2.0 * 5000 / h) + 1.0) - math.log(0.1 / 9.0)) / 5000)
    yield "gap bound", checks.check_gaps([(5000, 0.4, bound)], h, 0.1), \
        checks.check_gaps([(5000, bound * 1.001, bound)], h, 0.1)
    yield "reported bound", checks.check_gaps([(5000, 0.4, bound)], h, 0.1), \
        checks.check_gaps([(5000, 0.4, bound + 1e-9)], h, 0.1)

    # criterion 4's hand value: gap_binary(10, 1000, 0.1) = 0.5196
    hand = 2.0 * math.sqrt((10 * (math.log(200) + 1) - math.log(0.1 / 9)) / 1000)
    assert abs(checks.gap_binary(10, 1000, 0.1) - hand) < 1e-12 and abs(hand - 0.5196) < 1e-3
    h20 = 20 * math.log2(20) + 190
    gap = checks.gap_binary(h20, 50000, 0.1)
    report = {"h": h20, "gap": gap, "bound": 0.05 + gap}
    yield "bound report", checks.check_bound_report(report, 20, 50000, 0.1, 0.05), \
        checks.check_bound_report(dict(report, gap=gap * (1 + 1e-9)), 20, 50000, 0.1, 0.05)

    k = 1
    while checks.gap_binary(checks.vc_polytrees(20), k, 0.1) > 0.1:
        k += 1
    plan = {"min_k": k, "possible_tests": 20 * 19 // 2 * 18}
    yield "plan min_k", checks.check_plan_report(plan, 20, 0.1, 0.1), \
        checks.check_plan_report(dict(plan, min_k=k + 1), 20, 0.1, 0.1)
    yield "plan universe", checks.check_plan_report(plan, 20, 0.1, 0.1), \
        checks.check_plan_report(dict(plan, possible_tests=20 * 19 * 18), 20, 0.1, 0.1)

    csv = tmp / "d.csv"
    csv.write_text("0,1,2\n" + "\n".join(",".join(repr(v) for v in row) for row in samples[:50, :3].tolist()) + "\n")
    off = samples[:50, :3].copy()
    off[7, 1] = np.nextafter(off[7, 1], np.inf)
    yield "csv round trip", checks.check_csv_equals(csv, samples[:50, :3], range(3)), \
        checks.check_csv_equals(csv, off, range(3))

    corr = np.corrcoef(samples, rowvar=False)
    order = [3, 0, 2, 1]
    value = corr[0, 2] * corr[2, 1]
    yield "path corr", checks.check_path_corr(samples, order, 0, 1, value), \
        checks.check_path_corr(samples, order, 0, 1, value + 1e-10)

    labels_csv = tmp / "labels.csv"
    labels_csv.write_text("query,outcome,p_value\nci:(0, 1)|(),1,0.5\nci:(0, 2)|(),0,0.001\n")
    yield "label count", checks.check_label_count(labels_csv, 2), \
        checks.check_label_count(labels_csv, 3)


def main():
    OUT.mkdir(exist_ok=True)
    bad = 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, right, wrong in cases(Path(tmp)):
            ok = not right and bool(wrong)
            bad += not ok
            verdict = "ok" if ok else "BROKEN"
            print(f"{verdict:6} {name:20} right answer: {right or 'accepted'}; wrong answer: {wrong or 'accepted'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
