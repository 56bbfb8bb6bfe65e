"""The four workloads.  Each pushes most of its time through different layers
of boundkey, so a change to one layer shows on the workload that runs it and
nowhere else (the README in this directory has the table of predictions).

A workload is a closed loop in one process: the next operation starts only
after the previous one has finished.  It has three parts:

- ``setup(ctx)`` builds the fixture.  The harness calls it several times and
  reports the median, so work moved into set-up shows in ``setup_s``.
- ``step(ctx, fx, tally)`` runs one unit of the loop and records the latency
  of every operation in it.  The harness stops between steps.
- ``summary(ctx, fx, tally, elapsed)`` checks run-level properties and
  returns the workload's own named figures.

All inputs (unitaries, noise levels, shot counts, shot and search seeds) come
from ``ctx.rng``, which the harness seeds from ``--seed``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import boundkey as bk
from boundkey.keyrate import CertificationInfeasibleError
from tracer import PROCESS_SPAN, Tracer

HERE = Path(__file__).resolve().parent

#: certified key rate of the flagship state, 1 - h(2 - sqrt 2)
FLAGSHIP_RATE = 1.0 - bk.binary_entropy(2.0 - math.sqrt(2.0))
#: white-noise threshold of the flagship's key bound (frozen in the tests)
FLAGSHIP_THRESHOLD = 0.004088211059570312
#: the same threshold for the fourier-d3 member, bracketed up to noise 0.05
FOURIER3_THRESHOLD = 0.011619949340820312
#: bisection tolerance of robustness_threshold, doubled for other brackets
THRESHOLD_ATOL = 2e-6
#: the E_r value one restart of the search is expected to reach
ER_TARGET = 0.1160
DELTA = 0.05
NOISE_LEVELS = (0.0, 0.001, 0.003)
SHOTS_PER_SETTING = (10**5, 10**6, 2 * 10**7)
CLI_SHOTS = 10**6
#: a CLI process that runs longer than this is a hang, not a measurement
PROCESS_TIMEOUT_S = 150


@dataclass
class Context:
    rng: np.random.Generator
    layers: SimpleNamespace
    tracer: Tracer | None
    workdir: Path
    env: dict


@dataclass
class Tally:
    """Operations, named samples and checked outcomes of one run.

    An operation is (start, end, parts): the intervals that make up its
    latency, usually just (start, end).

    A failed check is one failed operation.  A *shortfall* is a failure of a
    check the program is known not to pass yet; it counts as failed like any
    other, but does not mark the run's outputs incorrect.
    """

    ops: list[tuple[float, float, list[tuple[float, float]]]] = field(default_factory=list)
    #: start and end of every CLI process run
    processes: list[tuple[float, float]] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def op(self, start: float, end: float, parts: list | None = None) -> None:
        self.ops.append((start, end, [(start, end)] if parts is None else parts))

    @property
    def latencies(self) -> list[float]:
        return [sum(e - s for s, e in parts) for _, _, parts in self.ops]

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, what: str, ok: bool, why: str = "", shortfall: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"what": what, "why": why, "shortfall": shortfall})
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f["shortfall"] for f in self.failures)


def corner_blocks(rho) -> tuple[np.ndarray, np.ndarray]:
    """The key-flip blocks X1, X2 of a family state, as the CLI reads them."""
    d2 = rho.mat.shape[0] // 4
    return rho.mat[0:d2, 3 * d2 : 4 * d2], rho.mat[d2 : 2 * d2, 2 * d2 : 3 * d2]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def quantile_tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest of a few standard percentiles
    that leaves at least ten samples above it; None with too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = math.ceil(pct / 100.0 * n)
        if k >= 1 and n - k >= 10:
            return ordered[k - 1], pct, n
    return None


def _figure(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def _tail_figure(values: list[float], scale: float, unit: str) -> dict | None:
    tail = quantile_tail(values)
    if tail is None:
        return None
    value, pct, n = tail
    return _figure(value * scale, unit, percentile=pct, samples=n)


# ---------------------------------------------------------------------------
# cli-verify: fresh `python -m boundkey.cli` processes, one at a time


def _cli_setup(ctx: Context):
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    return SimpleNamespace(
        shot_seeds=[int(s) for s in ctx.rng.integers(0, 2**31, size=64)],
        first_prepared=int(ctx.rng.integers(0, 2)),
        sessions=0,
    )


def _run_cli(ctx: Context, tally: Tally, kind: str, args: list[str]):
    """Run one CLI process; returns (exit code, its JSON records by type)."""
    tracer = ctx.tracer
    if tracer is None:
        cmd = [sys.executable, "-m", "boundkey.cli", *args]
        span = None
    else:
        span = tracer.open(PROCESS_SPAN)
        spans_file = ctx.workdir / f"spans-{span['id']}.json"
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file), span["id"],
               "--", *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    end = time.perf_counter()
    tally.sample(kind, end - start)
    tally.processes.append((start, end))
    if span is not None:
        tracer.close(span)
        tracer.merge(json.loads(spans_file.read_text()))
    records: dict[str, list[dict]] = {}
    for line in proc.stdout.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        records.setdefault(rec.get("record"), []).append(rec)
    return proc.returncode, records


def _one(records: dict, name: str) -> dict:
    found = records.get(name, [])
    return found[0] if len(found) == 1 else {}


def _check_ppt(tally: Tally, label: str, code: int, recs: dict, threshold: float):
    what = f"ppt --robustness {label}"
    if code != 0:
        message = _one(recs, "error").get("message", "")
        # Known defect: the bisection bracket is never widened past
        # max(--noise-max, 1e-3), so states whose key bound survives more
        # noise than that exit 2 as malformed input.
        known = code == 2 and "has not crossed zero" in message
        tally.check(what, False, f"exit {code}: {message}", shortfall=known)
        return
    member = _one(recs, "membership")
    summary = _one(recs, "robustness_summary")
    found = summary.get("threshold_noise")
    tally.check(
        what,
        member.get("min_eig", -1.0) >= -1e-10
        and _one(recs, "invariance").get("max_deviation", 1.0) <= 1e-10
        and found is not None
        and abs(found - threshold) <= THRESHOLD_ATOL,
        f"membership {member}, threshold {found}",
    )


def _check_observables(tally: Tally, label: str, code: int, recs: dict):
    what = f"observables {label}"
    error = _one(recs, "error")
    if code != 0:
        # Known defect: the verification observables are built as 16 x 16
        # matrices only, and a d = 3 state fails with a numpy broadcast
        # error reported as malformed input.  Declining the state as
        # unsupported would be a correct answer.
        message = error.get("message", "")
        unsupported = "unsupported" in error.get("kind", "")
        known = code == 2 and "could not be broadcast" in message
        tally.check(what, unsupported, f"exit {code}: {message}", shortfall=known)
        return
    values = {r["observable"]: r["value"] for r in recs.get("expectation", [])}
    flagship_o1 = 3.0 - 2.0 * math.sqrt(2.0)
    tally.check(what, len(values) == 5 and (
        label != "hadamard" or abs(values.get("O1", 1.0) - flagship_o1) <= 1e-10
    ), f"expectations {values}")


def _cli_step(ctx: Context, fx, tally: Tally) -> None:
    """One verification session: the light commands on the flagship and on
    a fourier-d3 state, then simulate followed by certify.  Its latency is
    the sum of its ten processes' wall times."""
    index = fx.sessions
    fx.sessions += 1
    shot_seed = fx.shot_seeds[index % len(fx.shot_seeds)]
    prepared = (fx.first_prepared + index) % 2 == 1
    wd = ctx.workdir
    files = {"hadamard": wd / "hadamard.json", "fourier-d3": wd / "fourier-d3.json"}
    records_file = wd / f"records-{index}.tsv"
    first = len(tally.processes)
    session_start = time.perf_counter()

    weights = {}
    for preset, path in files.items():
        code, recs = _run_cli(ctx, tally, "light", ["gen", preset, "--out", str(path)])
        state = _one(recs, "state")
        d = 2 if preset == "hadamard" else 3
        weights[preset] = state.get("weight_correlated")
        tally.check(
            f"gen {preset}",
            code == 0 and path.is_file()
            and abs(state.get("bias_ratio", 0.0) - math.sqrt(d)) <= 1e-9,
            f"exit {code}, {state}",
        )
    for preset, path in files.items():
        state = ["--state", str(path)]
        code, recs = _run_cli(ctx, tally, "light", ["ppt", *state, "--robustness"])
        threshold = FLAGSHIP_THRESHOLD if preset == "hadamard" else FOURIER3_THRESHOLD
        _check_ppt(tally, preset, code, recs, threshold)

        code, recs = _run_cli(ctx, tally, "light", ["key", *state])
        dw = _one(recs, "key_bounds").get("dw_squeezed")
        p1 = weights[preset]
        expect = FLAGSHIP_RATE if preset == "hadamard" else (
            None if p1 is None else 1.0 - bk.binary_entropy(p1)
        )
        tally.check(
            f"key {preset}",
            code == 0 and None not in (dw, expect) and abs(dw - expect) <= 1e-9,
            f"exit {code}, dw_squeezed {dw}, expected {expect}",
        )

        code, recs = _run_cli(ctx, tally, "light", ["observables", *state])
        _check_observables(tally, preset, code, recs)

    flagship = ["--state", str(files["hadamard"])]
    sim_args = ["simulate", *flagship, "--shots", str(CLI_SHOTS), "--seed", str(shot_seed),
                "--out", str(records_file)] + (["--prepared"] if prepared else [])
    code, recs = _run_cli(ctx, tally, "simulate", sim_args)
    digest = _one(recs, "records").get("scheme")
    header = ""
    if records_file.is_file():
        with open(records_file) as fh:
            header = fh.readline() + fh.readline()
    tally.check("simulate", code == 0 and digest is not None and f"scheme={digest} " in header,
                f"exit {code}, digest {digest}, header {header!r}")

    code, recs = _run_cli(ctx, tally, "certify", ["certify", *flagship,
                                                  "--records", str(records_file)])
    cert = _one(recs, "certification")
    raw, floor = cert.get("raw_bound"), cert.get("certified_bound")
    tally.check("certify", code == 0 and None not in (raw, floor) and floor <= raw + 1e-12,
                f"exit {code}, {cert or _one(recs, 'error')}")
    records_file.unlink(missing_ok=True)

    tally.op(session_start, time.perf_counter(), tally.processes[first:])
    if ctx.tracer is not None:
        ctx.tracer.count("ops")


def _cli_summary(ctx: Context, fx, tally: Tally, elapsed: float) -> dict:
    s = tally.samples
    return {
        "simulate_s": _figure(float(np.median(s["simulate"])), "s", samples=len(s["simulate"])),
        "certify_s": _figure(float(np.median(s["certify"])), "s", samples=len(s["certify"])),
        "cli_light_s": _figure(float(np.median(s["light"])), "s", samples=len(s["light"])),
    }


# ---------------------------------------------------------------------------
# coverage-study: sample -> estimate -> certify cycles in process


def _coverage_setup(ctx: Context):
    L = ctx.layers
    rho = bk.rho_h()
    obs = L.build_observables(L.canonical_twisting(*corner_blocks(rho)))
    scheme = L.min_settings_cover([obs.o1, obs.r1, obs.i1, obs.r2, obs.i2])
    true_bound = bk.twirl_hashing_bound(rho)
    return SimpleNamespace(
        rho=rho,
        scheme=scheme,
        truth={noise: true_bound(L.depolarize(rho, noise)) for noise in NOISE_LEVELS},
        above_truth=0,
        positive=0,
        cycles=0,
    )


def _coverage_step(ctx: Context, fx, tally: Tally) -> None:
    """One operation: a block of cycles, every (noise, shots) pair once in
    seeded order, so each operation holds the same mix of work.  Its latency
    is the sum of its cycles' times."""
    L = ctx.layers
    combos = [(n, s) for n in NOISE_LEVELS for s in SHOTS_PER_SETTING]
    block_start = time.perf_counter()
    cycles = []
    for k in ctx.rng.permutation(len(combos)):
        noise, shots = combos[k]
        shot_seed = int(ctx.rng.integers(0, 2**32))
        start = time.perf_counter()
        try:
            noisy = L.depolarize(fx.rho, noise)
            records = L.sample_scheme(noisy, fx.scheme.settings, shots, shot_seed)
            report = L.estimate_parameters(records, fx.scheme, delta=DELTA)
            floor = L.certify(report)
        except CertificationInfeasibleError as exc:
            tally.check(f"cycle noise={noise} shots={shots}", False, str(exc))
            continue
        cycles.append((start, time.perf_counter()))
        tally.sample("cycle", cycles[-1][1] - start)
        fx.cycles += 1
        fx.above_truth += floor > fx.truth[noise]
        fx.positive += floor > 0.0
        tally.check(f"cycle noise={noise} shots={shots} seed={shot_seed}",
                    floor <= report.raw_bound + 1e-12,
                    f"certified {floor} above raw {report.raw_bound}")
    tally.op(block_start, time.perf_counter(), cycles)
    if ctx.tracer is not None:
        ctx.tracer.count("ops")


def _coverage_summary(ctx: Context, fx, tally: Tally, elapsed: float) -> dict:
    share = fx.above_truth / fx.cycles if fx.cycles else 1.0
    tally.check("floors above the true bound", share <= DELTA,
                f"{fx.above_truth} of {fx.cycles} floors exceed the true key bound")
    named = {
        "certs_per_s": _figure(fx.cycles / elapsed, "1/s", cycles=fx.cycles),
        "cert_ms.p50": _figure(1000.0 * float(np.median(tally.samples["cycle"])), "ms"),
        "floors_above_truth": _figure(share, "ratio", delta=DELTA),
        "positive_floors": _figure(fx.positive / max(fx.cycles, 1), "ratio"),
    }
    tail = _tail_figure(tally.samples["cycle"], 1000.0, "ms")
    if tail is not None:
        named["cert_ms.tail"] = tail
    return named


# ---------------------------------------------------------------------------
# er-search: one-restart E_r searches on the flagship, in process


def _er_setup(ctx: Context):
    return SimpleNamespace(rho=bk.rho_h())


def _er_step(ctx: Context, fx, tally: Tally) -> None:
    seed = int(ctx.rng.integers(0, 2**31))
    start = time.perf_counter()
    result = ctx.layers.er_upper_bound(fx.rho, restarts=1, seed=seed)
    tally.op(start, time.perf_counter())
    tally.sample("er_value", result.value)
    exact = bk.rel_entropy(fx.rho, result.witness.sigma())
    tally.check(f"er seed={seed} witness", abs(exact - result.value) <= 1e-9
                and result.value >= FLAGSHIP_RATE - 1e-9,
                f"value {result.value}, witness gives {exact}")
    # A value above the target is still a valid upper bound: one restart
    # of the current search does not reach the target on every seed.
    tally.check(f"er seed={seed} target", result.value <= ER_TARGET,
                f"value {result.value} above {ER_TARGET}", shortfall=True)
    if ctx.tracer is not None:
        ctx.tracer.count("ops")


def _er_summary(ctx: Context, fx, tally: Tally, elapsed: float) -> dict:
    return {
        "er_s": _figure(float(np.median(tally.latencies)), "s", samples=len(tally.ops)),
        "er_value": _figure(float(np.median(tally.samples["er_value"])), "bits"),
    }


# ---------------------------------------------------------------------------
# family-survey: characterise members of the state family


def _survey_setup(ctx: Context):
    return SimpleNamespace(pairs=0, members=0)


def _characterise(ctx: Context, u: np.ndarray, tally: Tally, label: str) -> None:
    L = ctx.layers
    rho, p1, _ = L.rho_u(u)
    _, min_eig = L.ppt_check(rho)
    deviation = L.ppt_invariance(rho)
    pt_min = float(np.linalg.eigvalsh(L.partial_transpose(rho, (1, 3)).mat)[0])
    tau = L.canonical_twisting(*corner_blocks(rho))
    sigma = L.privacy_squeeze(rho, tau)
    dw_squeezed = L.dw_rate(L.ccq_from_state(sigma))
    dw_conservative = L.dw_rate(L.ccq_from_state(rho, conservative=True))
    m = sigma.mat
    bounds = L.certified_bounds(np.real(np.diag(m)), float(m[0, 3].real), float(m[0, 3].imag),
                                float(m[1, 2].real), float(m[1, 2].imag))
    entropy = L.von_neumann_entropy(rho)
    base = bk.twirl_hashing_bound(rho)
    evals = [0]

    def bound_fn(state):
        evals[0] += 1
        return base(state)

    threshold = L.robustness_threshold(rho, bound_fn=bound_fn)
    if ctx.tracer is not None:
        ctx.tracer.count("ppt.robustness_evals", evals[0])

    rate = 1.0 - bk.binary_entropy(p1)
    expect = FLAGSHIP_RATE if label == "hadamard" else rate
    tally.check(
        f"member {label}",
        min_eig >= -1e-10
        and deviation <= 1e-10
        and abs(pt_min - min_eig) <= 1e-12
        and abs(dw_squeezed - expect) <= 1e-9
        and abs(bounds.twirl_hashing - dw_squeezed) <= 1e-9
        and dw_conservative <= dw_squeezed + 1e-9
        and 0.0 <= entropy <= math.log2(rho.mat.shape[0])
        and 0.0 < threshold < 0.05,
        f"min_eig {min_eig}, invariance {deviation}, pt {pt_min}, dw {dw_squeezed} "
        f"(expected {expect}), twirl {bounds.twirl_hashing}, conservative {dw_conservative}, "
        f"entropy {entropy}, threshold {threshold}",
    )


def _survey_step(ctx: Context, fx, tally: Tally) -> None:
    """One pair of members, d = 2 then d = 3: the two named presets first,
    then seeded Haar-random shield unitaries."""
    if fx.pairs == 0:
        members = [("hadamard", bk.hadamard()), ("fourier-d3", bk.fourier(3))]
    else:
        members = [(f"haar-d{d}", haar_unitary(d, ctx.rng)) for d in (2, 3)]
    fx.pairs += 1
    pair_start = time.perf_counter()
    for label, u in members:
        start = time.perf_counter()
        _characterise(ctx, u, tally, label)
        tally.sample(f"d{u.shape[0]}", time.perf_counter() - start)
        fx.members += 1
    tally.op(pair_start, time.perf_counter())
    if ctx.tracer is not None:
        ctx.tracer.count("ops")


def _survey_summary(ctx: Context, fx, tally: Tally, elapsed: float) -> dict:
    named = {"survey_states_per_s": _figure(fx.members / elapsed, "1/s", members=fx.members)}
    for d in ("d2", "d3"):
        named[f"state_ms.{d}.p50"] = _figure(1000.0 * float(np.median(tally.samples[d])), "ms")
        tail = _tail_figure(tally.samples[d], 1000.0, "ms")
        if tail is not None:
            named[f"state_ms.{d}.tail"] = tail
    return named


@dataclass(frozen=True)
class Workload:
    setup: object
    step: object
    summary: object
    #: what one operation (one latency sample) is
    operation: str


WORKLOADS = {
    "cli-verify": Workload(_cli_setup, _cli_step, _cli_summary,
                           "a verification session of ten CLI processes"),
    "coverage-study": Workload(_coverage_setup, _coverage_step, _coverage_summary,
                               "a block of nine sample -> estimate -> certify cycles"),
    "er-search": Workload(_er_setup, _er_step, _er_summary, "an er_upper_bound call"),
    "family-survey": Workload(_survey_setup, _survey_step, _survey_summary,
                              "a d = 2 and a d = 3 member, characterised"),
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
