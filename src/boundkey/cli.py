"""Command-line front door.

Every subcommand prints a stream of JSON lines: first a header record
with the tool version, seeds, tolerances and conventions, then one
record per result.  Exit codes: 0 on success, 2 on malformed input,
3 when a certification is statistically infeasible, 4 when a valid
state is outside what the command supports (the verification layer and
the E_r search handle four-qubit states only).

Each command imports the layers it runs when it starts; the module itself
loads numpy and ``linalg`` only, so a process pays for no other layer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .linalg import (
    NPT_FLAG_TOL,
    PPT_MEMBERSHIP_TOL,
    CertificationInfeasibleError,
    DensityOperator,
    UnsupportedStateError,
    max_abs_distance,
    trace_norm,
)

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_UNSUPPORTED = 4


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no NaN or Infinity
    return value


def _emit(record: str, **fields) -> None:
    print(json.dumps({"record": record, **_jsonable(fields)}, allow_nan=False))


def _emit_header(command: str, **extra) -> None:
    _emit(
        "header",
        tool="boundkey",
        version=__version__,
        command=command,
        conventions={
            "log_base": 2,
            "subsystem_order": "A B A' B'",
            "transpose_cut": "B B'",
        },
        tolerances={
            "ppt_membership": PPT_MEMBERSHIP_TOL,
            "npt_flag": NPT_FLAG_TOL,
        },
        **extra,
    )


def _load_state_arg(args) -> DensityOperator:
    if args.state is None:
        from .states import rho_h

        return rho_h()
    from .serialize import load_state

    return load_state(args.state)


def _unitary_for(args) -> np.ndarray:
    from .states import fourier, hadamard

    if args.preset == "hadamard":
        return hadamard()
    if args.preset == "fourier-d3":
        return fourier(3)
    if args.preset == "identity":
        return np.eye(2)
    from .serialize import load_unitary

    return load_unitary(args.preset)


def _cmd_gen(args) -> int:
    from .serialize import save_state
    from .states import key_ratio, rho_u

    _emit_header("gen", preset=args.preset)
    u = _unitary_for(args)
    state, p1, p2 = rho_u(u)
    save_state(state, args.out)
    _emit(
        "state",
        path=str(args.out),
        dims=state.dims,
        weight_correlated=p1,
        weight_anticorrelated=p2,
        bias_ratio=key_ratio(u),
    )
    return EXIT_OK


def _check_scan_arguments(args) -> None:
    """ValueError naming the flag for a ``ppt`` scan argument outside its
    range, whether or not the scan that reads it is asked for."""
    if args.grid < 0:
        raise ValueError(f"--grid must be nonnegative, got {args.grid}")
    if not 0.0 <= args.noise_max <= 1.0:  # NaN fails too
        raise ValueError(f"--noise-max must lie in [0, 1], got {args.noise_max}")
    if not 0.0 <= args.extremality_span < math.inf:
        raise ValueError(
            f"--extremality-span must be finite and nonnegative, got {args.extremality_span}"
        )


def _cmd_ppt(args) -> int:
    from .keyrate import corner_blocks
    from .ppt import (
        bob_cut,
        extremality_scan,
        ppt_check,
        ppt_invariance,
        robustness_scan,
        robustness_threshold,
    )

    _emit_header("ppt", state=args.state)
    _check_scan_arguments(args)  # bad arguments are refused before any work
    rho = _load_state_arg(args)
    is_ppt, min_eig = ppt_check(rho)
    _emit(
        "membership",
        is_ppt=is_ppt,
        min_eig=min_eig,
        transpose_cut=" ".join(rho.labels[i] for i in bob_cut(rho)),
    )
    _emit("invariance", max_deviation=ppt_invariance(rho))
    if args.extremality:
        x1, x2 = corner_blocks(rho)
        p1 = 2.0 * trace_norm(x1)
        lo = max(p1 - args.extremality_span, 1e-6)
        hi = min(p1 + args.extremality_span, 1.0 - 1e-6)
        for pt in extremality_scan(x1, x2, np.linspace(lo, hi, args.grid)):
            _emit("extremality", weight=pt.weight, min_eig=pt.min_eig, is_npt=pt.is_npt)
    if args.robustness:
        report = robustness_scan(rho, np.linspace(0.0, args.noise_max, args.grid))
        for pt in report.points:
            _emit(
                "robustness",
                noise=pt.noise,
                min_eig=pt.min_eig,
                key_bound=pt.key_bound,
            )
        threshold = robustness_threshold(rho)
        _emit(
            "robustness_summary",
            largest_positive_noise=report.largest_positive_noise,
            threshold_noise=threshold,
        )
    return EXIT_OK


def _cmd_key(args) -> int:
    from .keyrate import (
        canonical_twisting,
        ccq_from_state,
        certified_bounds,
        corner_blocks,
        dw_rate,
        holevo_rate,
        privacy_squeeze,
    )

    _emit_header("key", state=args.state)
    rho = _load_state_arg(args)
    tau = canonical_twisting(*corner_blocks(rho))
    sigma = privacy_squeeze(rho, tau)
    ccq = ccq_from_state(sigma)
    dw_squeezed = dw_rate(ccq)
    dw_conservative = dw_rate(ccq_from_state(rho, conservative=True))
    d = np.real(np.diag(sigma.mat))
    report = certified_bounds(
        d,
        float(np.real(sigma.mat[0, 3])),
        float(np.imag(sigma.mat[0, 3])),
        float(np.real(sigma.mat[1, 2])),
        float(np.imag(sigma.mat[1, 2])),
    )
    _emit(
        "key_bounds",
        dw_squeezed=dw_squeezed,
        dw_conservative=dw_conservative,
        twirl_hashing=report.twirl_hashing,
        info_minus_twirl_entropy=report.info_minus_twirl_entropy,
        holevo_difference=holevo_rate(ccq),
        twirl_spectrum=report.spectrum,
    )
    _emit(
        "recurrence",
        improves=bool(report.recurrence_per_copy_rate > report.twirl_hashing),
        acceptance=report.recurrence_acceptance,
        per_copy_rate=report.recurrence_per_copy_rate,
        two_way_positive=report.two_way_flag,
    )
    return EXIT_OK


def _cmd_er(args) -> int:
    from .keyrate import er_upper_bound

    _emit_header("er", state=args.state, seed=args.seed)
    rho = _load_state_arg(args)
    result = er_upper_bound(
        rho,
        restarts=args.restarts,
        seed=args.seed,
    )
    _emit(
        "er_upper_bound",
        value=result.value,
        restarts_completed=result.restarts_completed,
        starts=result.starts,
        iterations=result.iterations,
        evaluations=result.evaluations,
        gap=result.gap,
        gap_kind="Frank-Wolfe lower estimate, exact only up to the product-state oracle",
        symmetry_order=result.symmetry_order,
        orbits=result.orbits,
        witness_components=len(result.witness.weights),
    )
    return EXIT_OK


def _verification_observables(rho: DensityOperator):
    """The verification observables of a four-qubit state: every
    verification command refuses any other state here (exit 4)."""
    from .keyrate import canonical_twisting, corner_blocks
    from .observables import build_observables

    obs = build_observables(canonical_twisting(*corner_blocks(rho)))  # refuses d > 2 shields
    if rho.dims != (2, 2, 2, 2):  # a qubit-pair shield declared as one system, say
        raise UnsupportedStateError(
            f"the verification scheme is defined for four-qubit states, not dims {rho.dims}"
        )
    return obs


def _cmd_observables(args) -> int:
    from .observables import expansion_differences, expectation

    _emit_header("observables", state=args.state)
    rho = _load_state_arg(args)
    obs = _verification_observables(rho)
    for name, op in obs.named().items():
        _emit("expectation", observable=name, value=expectation(op, rho))
    items = [
        {"observable": name, "string": letters, "built": b, "reference": r}
        for name, terms in expansion_differences(obs).items()
        for letters, b, r in terms
    ]
    _emit(
        "expansion_comparison",
        differing_terms=len(items),
        max_difference=max((abs(i["built"] - i["reference"]) for i in items), default=0.0),
        terms=items,
    )
    return EXIT_OK


def _verification_targets(rho: DensityOperator) -> list[np.ndarray]:
    """The five verification observables of a state: O1, R1, I1, R2, I2."""
    return list(_verification_observables(rho).named().values())


def _emit_search_diagnostics(cover) -> None:
    """The settings search's own record, the same from ``settings`` and
    ``simulate``: the target sectors in test order and the proven lower
    bound on the scheme size."""
    _emit(
        "diagnostics",
        stage="settings_search",
        sectors=cover.sectors,
        lower_bound=cover.lower_bound,
    )


def _cmd_settings(args) -> int:
    from .observables import min_settings_cover

    _emit_header("settings", state=args.state)
    targets = _verification_targets(_load_state_arg(args))
    groups = {"key": targets[:1], "coherence": targets[1:], "all": targets}
    cover = min_settings_cover(groups[args.targets])
    _emit(
        "settings_cover",
        targets=args.targets,
        feasible=cover.feasible,
        size=cover.size,
        settings=[s.letters for s in cover.settings],
        max_residual=cover.max_residual,
        lower_bound=cover.lower_bound,
    )
    _emit_search_diagnostics(cover)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .observables import min_settings_cover
    from .serialize import save_records, scheme_hash
    from .shots import check_sampling, sample_scheme
    from .states import depolarize, rho_h, rho_h_mixture_form

    _emit_header("simulate", state=args.state, seed=args.seed, shots=args.shots,
                 noise=args.noise)
    rho = _load_state_arg(args)
    targets = _verification_targets(rho)  # refuses non-four-qubit states first (exit 4)
    if args.prepared:
        if args.noise:
            raise ValueError("--prepared samples the noiseless flagship recipe; drop --noise")
        if max_abs_distance(rho.mat, rho_h().mat) > 1e-10:
            raise UnsupportedStateError("--prepared samples the flagship recipe, not this state")
        rho = rho_h_mixture_form()  # the flagship assembled from its recipe
    check_sampling(args.shots, args.seed)  # bad arguments are refused before the search
    sampled = depolarize(rho, args.noise) if args.noise else rho
    scheme = min_settings_cover(targets)
    _emit_search_diagnostics(scheme)
    if not scheme.feasible:
        raise UnsupportedStateError("the settings search found no cover for this state")
    records = sample_scheme(sampled, scheme.settings, args.shots, args.seed)
    digest = scheme_hash(scheme)
    save_records(records, args.out, seed=args.seed, scheme_digest=digest)
    _emit(
        "records",
        path=str(args.out),
        scheme=digest,
        settings=[s.letters for s in scheme.settings],
        shots_per_setting=args.shots,
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    from .observables import cover_from_settings
    from .serialize import load_records, scheme_hash
    from .shots import certify, estimate_parameters

    _emit_header("certify", state=args.state, records=args.records, delta=args.delta)
    targets = _verification_targets(_load_state_arg(args))
    records, meta = load_records(args.records)
    scheme = cover_from_settings(targets, [r.setting for r in records])
    if not scheme.feasible:
        raise ValueError(
            f"the {scheme.size} settings in the records do not cover the "
            f"verification targets (residual {scheme.max_residual:.3e})"
        )
    digest = scheme_hash(scheme)
    if meta["scheme"] != digest:
        raise ValueError(
            f"records header names scheme {meta['scheme'][:12]}..., but the "
            f"settings they hold digest to {digest[:12]}..."
        )
    report = estimate_parameters(records, scheme, delta=args.delta)
    _emit("estimates", **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)})
    floor = certify(report)
    _emit(
        "certification",
        raw_bound=report.raw_bound,
        certified_bound=floor,
        positive=bool(floor > 0.0),
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundkey",
        description="Construct, certify and verify key-carrying PPT-invariant states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a state and write it to a file")
    gen.add_argument(
        "preset",
        help="named unitary (hadamard, fourier-d3, identity) or a JSON unitary file",
    )
    gen.add_argument("--out", required=True, help="state file to write")
    gen.set_defaults(func=_cmd_gen)

    ppt = sub.add_parser("ppt", help="PPT membership, invariance and region reports")
    ppt.add_argument("--state", help="state file (default: the flagship instance)")
    ppt.add_argument("--extremality", action="store_true", help="scan mixture weights")
    ppt.add_argument("--robustness", action="store_true", help="scan white noise")
    ppt.add_argument("--grid", type=int, default=21, help="scan points per report")
    ppt.add_argument("--extremality-span", type=float, default=0.1)
    ppt.add_argument("--noise-max", type=float, default=0.01)
    ppt.set_defaults(func=_cmd_ppt)

    key = sub.add_parser("key", help="key-rate bounds of a state")
    key.add_argument("--state", help="state file (default: the flagship instance)")
    key.set_defaults(func=_cmd_key)

    er = sub.add_parser("er", help="search an upper bound on relative entropy of entanglement")
    er.add_argument("--state", help="state file (default: the flagship instance)")
    er.add_argument("--restarts", type=int, default=4)
    er.add_argument("--seed", type=int, default=0)
    er.set_defaults(func=_cmd_er)

    obs = sub.add_parser("observables", help="verification observables of a state")
    obs.add_argument("--state", help="state file (default: the flagship instance)")
    obs.set_defaults(func=_cmd_observables)

    settings = sub.add_parser("settings", help="search minimal measurement schemes")
    settings.add_argument("--state", help="state file (default: the flagship instance)")
    settings.add_argument(
        "--targets", choices=("key", "coherence", "all"), default="all"
    )
    settings.set_defaults(func=_cmd_settings)

    sim = sub.add_parser("simulate", help="sample shot records for a scheme")
    sim.add_argument("--state", help="state file (default: the flagship instance)")
    sim.add_argument("--shots", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--noise", type=float, default=0.0, help="white-noise weight")
    sim.add_argument(
        "--prepared",
        action="store_true",
        help="sample the flagship as assembled from its four-component preparation recipe",
    )
    sim.add_argument("--out", required=True, help="records file to write")
    sim.set_defaults(func=_cmd_simulate)

    cert = sub.add_parser("certify", help="estimate parameters and certify a key bound")
    cert.add_argument("--state", help="state file (default: the flagship instance)")
    cert.add_argument("--records", required=True, help="records file to read")
    cert.add_argument("--delta", type=float, default=0.05)
    cert.set_defaults(func=_cmd_certify)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationInfeasibleError as exc:
        _emit("error", kind="certification_infeasible", message=str(exc))
        return EXIT_INFEASIBLE
    except UnsupportedStateError as exc:
        _emit("error", kind="unsupported_state", message=str(exc))
        return EXIT_UNSUPPORTED
    except (ValueError, KeyError, OSError) as exc:
        _emit("error", kind="malformed_input", message=str(exc))
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
