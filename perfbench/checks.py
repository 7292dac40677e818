"""Output checks: invariants for any seed, stored references for the default seed.

Every check adds one to `attempted`; a check that does not hold adds one to
`failed` too, so failed / attempted is the run's failure fraction.  The
functions here take parsed outputs rather than running anything, so the
negative self-test can feed them deliberately corrupted copies.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from graphdyn.stepkernel import StepKernel

# relative tolerance of a stored float; the absolute floor covers values
# that are exactly 0 (the energy at the constant one-half start)
REL_TOL = 1e-9
ABS_TOL = 1e-12


class Checker:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{what}: {detail}" if detail else what)
        return ok


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(ck: Checker, label: str, got: dict, ref: dict) -> None:
    """Strings and ints must match exactly; floats and float lists closely."""
    for key, want in ref.items():
        have = got.get(key)
        what = f"{label}: {key} matches the stored reference"
        if isinstance(want, (str, int)) and not isinstance(want, bool):
            ck.expect(what, have == want, f"{have!r} != {want!r}")
        elif isinstance(want, list):
            ok = (isinstance(have, list) and len(have) == len(want)
                  and all(close(h, w) for h, w in zip(have, want)))
            ck.expect(what, ok, "values differ beyond 1e-9 relative")
        else:
            ck.expect(what, isinstance(have, float) and close(have, want), f"{have!r} != {want!r}")


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def upper_labels(r: int) -> list[str]:
    return [f"q_{i}_{j}" for i in range(r) for j in range(i, r)]


def full_matrix(r: int, upper) -> np.ndarray:
    m = np.zeros((r, r))
    iu = np.triu_indices(r)
    m[iu] = upper
    m.T[iu] = upper
    return m


def nondecreasing(xs) -> bool:
    return all(b >= a - REL_TOL * abs(a) for a, b in zip(xs, xs[1:]))


# --- chain -----------------------------------------------------------------

CHAIN_EXACT_COLUMNS = ("step", "accepted")


def chain_summary(text: str) -> dict:
    """Exact columns (step, accepted, q_*) as one digest; H and acc_prob as floats."""
    header, rows = read_csv(text)
    keep = [k for k, name in enumerate(header) if name in CHAIN_EXACT_COLUMNS or name.startswith("q_")]
    exact = "\n".join(",".join(row[k] for k in keep) for row in rows)
    return {
        "rows": len(rows),
        "exact_sha256": hashlib.sha256(exact.encode()).hexdigest(),
        "H": [float(row[header.index("H")]) for row in rows],
        "acc_prob": [float(row[header.index("acc_prob")]) for row in rows],
    }


def check_chain(ck: Checker, text: str, h, n: int, r: int, iterations: int,
                record_every: int, ref: dict | None) -> None:
    """Recorded densities sit on the count lattice and H is their energy."""
    header, rows = read_csv(text)
    ck.expect("chain: columns are step,t,H,acc_prob,accepted and the upper triangle",
              header == ["step", "t", "H", "acc_prob", "accepted"] + upper_labels(r),
              f"{header[:6]}...")
    steps = [int(row[0]) for row in rows]
    want = list(range(0, iterations + 1, record_every))
    ck.expect("chain: one row per recorded step", steps == want, f"{len(steps)} rows")
    caps = np.array([n * (n - 1) // 2 if i == j else n * n for i in range(r) for j in range(i, r)])
    off_lattice = bad_energy = bad_flags = 0
    for row in rows:
        q = np.array([float(x) for x in row[5:]])
        counts = np.rint(q * caps)
        if q.shape != caps.shape or not (np.all(counts / caps == q) and np.all(counts >= 0)
                                         and np.all(counts <= caps)):
            off_lattice += 1
            continue
        energy = h.evaluate(StepKernel(full_matrix(r, q)))
        bad_energy += not close(float(row[2]), energy)
        acc_prob = float(row[3])
        bad_flags += not (row[4] in ("0", "1") and 0.0 <= acc_prob <= 1.0)
    ck.expect("chain: every recorded density is on the count lattice", off_lattice == 0,
              f"{off_lattice} rows off the lattice")
    ck.expect("chain: H equals Hamiltonian.evaluate of the recorded row", bad_energy == 0,
              f"{bad_energy} rows disagree")
    ck.expect("chain: acc_prob in [0, 1] and accepted in {0, 1}", bad_flags == 0,
              f"{bad_flags} rows out of range")
    if ref is not None:
        compare_reference(ck, "chain trajectory", chain_summary(text), ref)


def flip_one_count(text: str, n: int) -> str:
    """The trajectory with the first count of the last row moved by one pair."""
    lines = text.splitlines()
    row = lines[-1].split(",")
    cap = n * (n - 1) // 2  # q_0_0 is a diagonal cell
    k = round(float(row[5]) * cap)
    row[5] = repr((k - 1 if k > 0 else k + 1) / cap)
    lines[-1] = ",".join(row)
    return "\n".join(lines) + "\n"


# --- diffusion -------------------------------------------------------------

def check_unit_states(ck: Checker, label: str, states) -> None:
    states = list(states)
    in_box = all(np.all((s >= 0.0) & (s <= 1.0)) for s in states)
    symmetric = all(np.array_equal(s, s.T) for s in states)
    ck.expect(f"{label}: every state lies in [0, 1]", in_box)
    ck.expect(f"{label}: every state is symmetric", symmetric)


def trajectory_states(text: str, r: int, first_q: int):
    header, rows = read_csv(text)
    return header, rows, [full_matrix(r, [float(x) for x in row[first_q:]]) for row in rows]


# --- metrics ---------------------------------------------------------------

STEPKERNEL_KEYS = ("cut_metric_upper", "delta2_upper")
MVG_KEYS = ("delta_black_lower", "delta_black_eps", "wass_cut_lower", "wass_cut_eps",
            "delta2_upper", "net_size")


def metrics_summary(doc: dict) -> dict:
    keys = MVG_KEYS if "delta_black_lower" in doc else STEPKERNEL_KEYS
    return {k: doc.get(k) for k in keys}


def check_stepkernel_metrics(ck: Checker, label: str, doc: dict, exhaustive: bool,
                             relabeled: bool, ref: dict | None) -> None:
    cut, d2 = doc.get("cut_metric_upper"), doc.get("delta2_upper")
    ok = all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in (cut, d2))
    if not ck.expect(f"{label}: metrics are finite and nonnegative", ok, f"{cut!r}, {d2!r}"):
        return
    if exhaustive:
        # the cut norm is below the L2 norm at every relabeling, so at the optimum
        ck.expect(f"{label}: cut metric <= delta2 (exhaustive search)", cut <= d2 + 1e-12,
                  f"{cut} > {d2}")
    if relabeled and exhaustive:
        ck.expect(f"{label}: a relabeled copy scores 0", cut <= 1e-12 and d2 <= 1e-12,
                  f"cut {cut}, delta2 {d2}")
    if ref is not None:
        compare_reference(ck, label, metrics_summary(doc), ref)


def check_mvg_metrics(ck: Checker, doc: dict, proj: float, ref: dict | None) -> None:
    """The three relations of acceptance test 05, at this pair and net."""
    lower, eps = doc.get("delta_black_lower"), doc.get("delta_black_eps")
    w_lower, d2u = doc.get("wass_cut_lower"), doc.get("delta2_upper")
    vals = (lower, eps, w_lower, d2u)
    if not ck.expect("mvg: metrics are finite", all(isinstance(v, float) and math.isfinite(v)
                                                     for v in vals), f"{vals}"):
        return
    ck.expect("mvg: alignment metric below the L2 one", lower <= d2u + 1e-9, f"{lower} > {d2u}")
    ck.expect("mvg: projection is 1-Lipschitz", proj <= lower + eps + 1e-9,
              f"{proj} > {lower} + {eps}")
    ck.expect("mvg: wass_cut within 2 eps of delta_black", abs(lower - w_lower) <= 2 * eps + 1e-9,
              f"|{lower} - {w_lower}| > 2 * {eps}")
    if ref is not None:
        compare_reference(ck, "mvg metrics", metrics_summary(doc), ref)


# --- ensemble --------------------------------------------------------------

def check_symmetric_finite(ck: Checker, label: str, m: np.ndarray) -> None:
    ck.expect(f"{label}: finite and symmetric",
              bool(np.isfinite(m).all()) and np.array_equal(m, m.T))


def sampler_band(f: np.ndarray, v: np.ndarray, n: int) -> tuple[float, float]:
    """Exact mean and standard deviation of the entry mean of an n-vertex sample.

    Vertices fall into r blocks uniformly and independently; entry (i, j) is a
    draw from cell (block_i, block_j) with mean f and variance v, the diagonal
    included.  The mean of all n^2 entries is F / n^2 plus draw noise, where
    F = sum_i d(B_i) + sum_{i != j} f(B_i, B_j) with d the diagonal of f and
    g the row means of f.
    """
    d, g = np.diag(f), f.mean(axis=1)
    mean = (d.mean() + (n - 1) * f.mean()) / n
    var_f = n * d.var() + 4 * (n * (n - 1) / 2 * f.var() + n * (n - 1) * (n - 2) * g.var()) \
        + 4 * n * (n - 1) * float(np.mean((d - d.mean()) * (g - g.mean())))
    var_draw = n * np.diag(v).mean() + 2 * n * (n - 1) * v.mean()
    return float(mean), math.sqrt((var_f + var_draw) / n**4)


def check_esbm(ck: Checker, edges: np.ndarray, realized: np.ndarray, counts: np.ndarray,
               caps: np.ndarray, n: int) -> None:
    r = counts.shape[0]
    ck.expect("esbm: realized density is the quantized one", np.array_equal(realized, counts / caps))
    u, v = edges[:, 0], edges[:, 1]
    bu, bv = u // n, v // n
    got = np.zeros((r, r), dtype=np.int64)
    np.add.at(got, (bu, bv), 1)
    iu = np.triu_indices(r)
    ck.expect("esbm: edge count per cell equals the quantized count",
              np.array_equal(got[iu], counts[iu]) and not np.tril(got, -1).any())
    same = bu == bv
    ck.expect("esbm: pairs inside a community are ordered and loop-free", bool(np.all(u[same] < v[same])))
    ck.expect("esbm: no pair is drawn twice", len(np.unique(edges, axis=0)) == len(edges))


def selftest(ck: Checker, check, corrupt) -> None:
    """The checks must reject a corrupted copy of an output."""
    probe = Checker()
    check(probe, corrupt())
    ck.expect("self-test: a corrupted copy of the output is rejected", probe.failed > 0)


def moved_metrics(doc: dict) -> dict:
    return {**doc, "delta_black_lower": doc["delta_black_lower"] + 1e-6}


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
