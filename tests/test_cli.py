"""Command-line interface: JSON-line reports and exit-code contract."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import boundkey as bk
from boundkey import cli, keyrate, observables
from boundkey.shots import FUNCTIONAL_VALUES, OUTCOMES

P1 = 2.0 - math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


def by_kind(records, kind):
    found = [r for r in records if r["record"] == kind]
    assert found, f"no {kind!r} record in {[r['record'] for r in records]}"
    return found[0]


def test_every_report_starts_with_a_header(capsys):
    code, records = run_cli(capsys, "key")
    assert code == 0
    head = records[0]
    assert head["record"] == "header"
    assert head["tool"] == "boundkey"
    assert head["command"] == "key"
    assert head["conventions"]["log_base"] == 2
    assert head["conventions"]["subsystem_order"] == "A B A' B'"
    assert head["conventions"]["transpose_cut"] == "B B'"


def test_header_reports_the_package_version(capsys):
    # from a source checkout no installed metadata exists; the header must
    # still name the version the package declares
    code, records = run_cli(capsys, "gen", "identity", "--out", os.devnull)
    assert code == 0
    assert records[0]["version"] == bk.__version__ != "unknown"


# Run in a fresh interpreter: imports the CLI, runs the commands given as
# arguments (a "--" between two), and prints the boundkey modules loaded
# after the import and after each command.
FOOTPRINT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "boundkey" or m.startswith("boundkey."))
import boundkey.cli
steps = [loaded()]
argv = sys.argv[1:]
while argv:
    cut = argv.index("--") if "--" in argv else len(argv)
    with contextlib.redirect_stdout(io.StringIO()):
        assert boundkey.cli.run(argv[:cut]) == 0
    steps.append(loaded())
    argv = argv[cut + 1:]
print(json.dumps(steps))
"""


# Run in a fresh interpreter: imports the module named as the argument and
# prints the boundkey modules loaded.
IMPORT_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m == "boundkey" or m.startswith("boundkey."))))
"""


def run_probe(probe, *args):
    """The JSON a probe prints, run in a fresh interpreter on this boundkey."""
    path = os.pathsep.join([os.path.dirname(os.path.dirname(bk.__file__))]
                           + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    state = str(tmp_path / "state.json")
    steps = run_probe(FOOTPRINT_PROBE, "gen", "hadamard", "--out", state,
                      "--", "key", "--state", state)
    after_import, after_gen, after_key = (set(step) for step in steps)
    assert after_import == {"boundkey", "boundkey.cli", "boundkey.linalg"}
    layers = {f"boundkey.{m}" for m in ("keyrate", "observables", "shots", "ppt")}
    assert not after_gen & layers
    assert "boundkey.keyrate" in after_key
    assert not after_key & {"boundkey.observables", "boundkey.shots"}
    # on its own, key with --state needs no construction layer
    assert "boundkey.states" not in run_probe(FOOTPRINT_PROBE, "key", "--state", state)[-1]


def test_layer_footprints():
    # the key-rate maths needs linalg alone, and the shot statistics never
    # load the states layer
    keyrate_layers = set(run_probe(IMPORT_PROBE, "boundkey.keyrate"))
    assert keyrate_layers == {"boundkey", "boundkey.keyrate", "boundkey.linalg"}
    assert "boundkey.states" not in run_probe(IMPORT_PROBE, "boundkey.shots")


def test_lazy_package_names_resolve():
    for name in bk.__all__:
        value = getattr(bk, name)
        if name != "__version__":
            module = sys.modules[f"boundkey.{bk._MODULE_OF[name]}"]
            assert value is getattr(module, name), name
    assert set(bk.__all__) <= set(dir(bk))
    assert bk.serialize.load_state is bk.load_state
    # the exceptions keyrate raises are the ones the package exports
    assert keyrate.CertificationInfeasibleError is bk.CertificationInfeasibleError
    assert keyrate.UnsupportedStateError is bk.UnsupportedStateError
    with pytest.raises(AttributeError):
        bk.no_such_name
    # one form per value: these were aliases or wrappers and are gone
    assert len(bk.__all__) == 75
    for gone in ("PauliDecomposition", "as_state", "tensor", "recurrence_step",
                 "sample_prepared"):
        with pytest.raises(AttributeError):
            getattr(bk, gone)
    assert not hasattr(bk.CollectiveSetting("zzxx"), "name")


def test_gen_writes_a_loadable_state(capsys, tmp_path):
    path = tmp_path / "state.json"
    code, records = run_cli(capsys, "gen", "hadamard", "--out", str(path))
    assert code == 0
    state = by_kind(records, "state")
    assert abs(state["weight_correlated"] - P1) < 1e-12
    assert abs(state["bias_ratio"] - math.sqrt(2.0)) < 1e-12
    back = bk.load_state(path)
    assert np.array_equal(back.mat, bk.rho_h().mat)


def test_gen_identity_has_no_bias(capsys, tmp_path):
    path = tmp_path / "id.json"
    code, records = run_cli(capsys, "gen", "identity", "--out", str(path))
    assert code == 0
    state = by_kind(records, "state")
    assert abs(state["bias_ratio"] - 1.0) < 1e-12
    assert abs(state["weight_correlated"] - 0.5) < 1e-12


def test_key_report_values(capsys):
    code, records = run_cli(capsys, "key")
    assert code == 0
    bounds = by_kind(records, "key_bounds")
    assert abs(bounds["dw_squeezed"] - 0.0213399156498) < 1e-10
    assert abs(bounds["twirl_hashing"] - 0.0213399156498) < 1e-10
    assert abs(bounds["dw_conservative"] + 0.9786600843501547) < 1e-10
    assert abs(bounds["info_minus_twirl_entropy"] + 0.9573201687) < 1e-9
    assert bounds["info_minus_twirl_entropy"] < 0.0 < bounds["twirl_hashing"]
    rec = by_kind(records, "recurrence")
    assert not rec["improves"]
    assert abs(rec["acceptance"] - (9.0 - 6.0 * math.sqrt(2.0))) < 1e-10
    assert abs(rec["per_copy_rate"] - 0.0210273280072) < 1e-10


def test_ppt_report_with_scans(capsys):
    code, records = run_cli(
        capsys, "ppt", "--extremality", "--robustness", "--grid", "11"
    )
    assert code == 0
    assert by_kind(records, "membership")["is_ppt"]
    assert by_kind(records, "membership")["transpose_cut"] == "B B'"
    assert by_kind(records, "invariance")["max_deviation"] < 1e-10
    extremality = [r for r in records if r["record"] == "extremality"]
    assert len(extremality) == 11
    npt_flags = [r["is_npt"] for r in extremality]
    assert sum(npt_flags) == 10  # only the flagship weight itself is PPT
    summary = by_kind(records, "robustness_summary")
    assert abs(summary["threshold_noise"] - 0.0040882) < 5e-6
    assert summary["largest_positive_noise"] <= summary["threshold_noise"]


def test_ppt_names_the_subsystems_it_transposed(capsys, tmp_path):
    # the flagship matrix saved on dims (2, 2, 4) with no labels gets the
    # labels (A, B, A'): only B is transposed, and the record says so
    path = tmp_path / "state.json"
    bk.save_state(bk.DensityOperator(bk.rho_h().mat, (2, 2, 4)), path)
    code, records = run_cli(capsys, "ppt", "--state", str(path))
    assert code == 0
    membership = by_kind(records, "membership")
    assert membership["transpose_cut"] == "B"
    assert not membership["is_ppt"]
    assert abs(membership["min_eig"] + 0.0732) < 1e-4
    assert abs(by_kind(records, "invariance")["max_deviation"] - 0.0732) < 1e-4


def test_observables_report(capsys):
    code, records = run_cli(capsys, "observables")
    assert code == 0
    values = {
        r["observable"]: r["value"] for r in records if r["record"] == "expectation"
    }
    assert abs(values["O1"] - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-10
    assert abs(values["R1"] - P1) < 1e-10
    assert abs(values["I1"]) < 1e-10
    comparison = by_kind(records, "expansion_comparison")
    assert comparison["differing_terms"] == 4
    assert abs(comparison["max_difference"] - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-10


def test_settings_report(capsys):
    code, records = run_cli(capsys, "settings", "--targets", "key")
    assert code == 0
    cover = by_kind(records, "settings_cover")
    assert cover["feasible"]
    assert cover["settings"] == ["zzxx"]
    assert cover["lower_bound"] == 1
    diag = by_kind(records, "diagnostics")
    assert diag["stage"] == "settings_search"
    assert diag["sectors"] == ["0011"]
    assert diag["lower_bound"] == 1


def test_simulate_prints_the_settings_search_diagnostics(capsys, simulated):
    code, records = run_cli(capsys, "settings")
    assert code == 0
    diag = by_kind(simulated[1], "diagnostics")
    assert diag == by_kind(records, "diagnostics")
    assert diag["lower_bound"] == 10


def test_infeasible_cover_report_is_strict_json(capsys, monkeypatch):
    # zzzz alone reaches none of the coherences, so the residual is infinite;
    # every line must still parse under a parser that refuses NaN/Infinity
    monkeypatch.setattr(
        observables, "default_candidates", lambda: [bk.CollectiveSetting("zzzz")]
    )
    code = cli.run(["settings", "--targets", "coherence"])
    assert code == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    cover = by_kind(records, "settings_cover")
    assert not cover["feasible"]
    assert cover["settings"] == []
    assert cover["max_residual"] is None
    diag = by_kind(records, "diagnostics")
    assert diag["lower_bound"] == 10


def test_er_report(capsys):
    # the first restart converges, so the search ends there
    code, records = run_cli(capsys, "er", "--restarts", "4", "--seed", "0")
    assert code == 0
    found = by_kind(records, "er_upper_bound")
    assert found["value"] >= 0.0213399 - 1e-6
    assert found["value"] <= 0.15
    assert found["restarts_completed"] == 1
    assert isinstance(found["iterations"], int) and 1 <= found["iterations"] <= 4000
    assert isinstance(found["evaluations"], int) and found["evaluations"] >= found["iterations"]


def test_er_report_diagnostics(capsys, monkeypatch):
    code, records = run_cli(capsys, "er", "--seed", "0")
    assert code == 0
    found = by_kind(records, "er_upper_bound")
    assert 0.0 <= found["gap"] < 1e-6
    assert "lower estimate" in found["gap_kind"]
    assert (found["symmetry_order"], found["orbits"]) == (16, 4)
    assert found["witness_components"] == 16 * 4
    assert found["starts"] >= found["restarts_completed"] == 1

    # a gap that is not finite is printed as null, in strict JSON
    search = keyrate.er_upper_bound
    monkeypatch.setattr(
        keyrate, "er_upper_bound",
        lambda *a, **kw: dataclasses.replace(search(*a, **kw), gap=float("inf")),
    )
    assert cli.run(["er", "--seed", "0"]) == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    assert by_kind(records, "er_upper_bound")["gap"] is None


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """One in-process ``simulate`` run, shared: each run pays a settings search."""
    path = tmp_path_factory.mktemp("simulate") / "shots.tsv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["simulate", "--shots", "20000", "--seed", "3", "--out", str(path)])
    assert code == 0
    return path, [json.loads(line) for line in out.getvalue().splitlines()]


def edited_copy(simulated, tmp_path, edit):
    """A copy of the simulated records file with ``edit`` applied to its lines."""
    path = tmp_path / "edited.tsv"
    path.write_text("\n".join(edit(simulated[0].read_text().splitlines())) + "\n")
    return path


def test_simulate_then_certify_roundtrip(capsys, simulated):
    path, records = simulated
    written = by_kind(records, "records")
    assert written["settings"][0] == "zzxx"
    assert f"scheme={written['scheme']} " in path.read_text().splitlines()[1]

    code, records = run_cli(capsys, "certify", "--records", str(path))
    assert code == 0
    estimates = by_kind(records, "estimates")
    assert abs(estimates["corr_weight"] - P1) < 0.02
    certification = by_kind(records, "certification")
    assert certification["certified_bound"] <= certification["raw_bound"]
    assert not certification["positive"]  # 20k shots cannot certify positivity


def test_certify_runs_no_settings_search(capsys, monkeypatch, simulated):
    def refuse(*args, **kwargs):
        raise AssertionError("certify must not search for a scheme")

    monkeypatch.setattr(observables, "min_settings_cover", refuse)
    code, _ = run_cli(capsys, "certify", "--records", str(simulated[0]))
    assert code == 0


def test_cli_floor_equals_in_process_estimate(capsys, simulated, full_scheme):
    code, records = run_cli(capsys, "certify", "--records", str(simulated[0]))
    assert code == 0
    loaded, _ = bk.load_records(simulated[0])
    expected = bk.estimate_parameters(loaded, full_scheme, delta=0.05)
    certification = by_kind(records, "certification")
    assert certification["raw_bound"] == expected.raw_bound
    assert certification["certified_bound"] == expected.certified_bound


# frozen SHA-256 digests of the records file that ``simulate`` writes as
# records.tsv and of ``certify``'s stdout on it: the records path from the
# sampler through the file to the estimator must keep every byte
RECORDS_PATH_DIGESTS = {
    ("--shots", "1000000", "--seed", "7"): (
        "feb1240bb008c78638cee9ebe3cc2cadc53d6191531e2403de5d7b228bde6532",
        "c0de454e0273f17edff1085010069428893603de528a1d7aa9fbd2fd0f89b676",
    ),
    ("--shots", "100000", "--seed", "3", "--prepared"): (
        "1772d2f4baa2288df4f7442ffe50d2a2d303adead7ccd560ff04ed7d60cb1b3e",
        "43719be0c0c802d5a125ca943b1ab5d070fae7e4252605a49efa0d6254993604",
    ),
}


@pytest.mark.parametrize("argv", list(RECORDS_PATH_DIGESTS), ids=["seed7", "prepared-seed3"])
def test_records_path_keeps_its_bytes(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.run(["simulate", *argv, "--out", "records.tsv"]) == 0
    capsys.readouterr()
    assert cli.run(["certify", "--records", "records.tsv"]) == 0
    digests = (
        hashlib.sha256((tmp_path / "records.tsv").read_bytes()).hexdigest(),
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    )
    assert digests == RECORDS_PATH_DIGESTS[argv]


def test_simulate_prepared_samples_the_recipe_built_flagship(capsys, tmp_path, simulated,
                                                            full_scheme):
    # --prepared draws through the one seeded sampler, from the flagship as
    # assembled from its preparation recipe; its file header is a plain run's
    path = tmp_path / "prepared.tsv"
    code, records = run_cli(capsys, "simulate", "--prepared", "--shots", "20000", "--seed", "3",
                            "--out", str(path))
    assert code == 0
    assert by_kind(records, "records")["settings"] == [s.letters for s in full_scheme.settings]
    loaded, _ = bk.load_records(path)
    expected = bk.sample_scheme(bk.rho_h_mixture_form(), full_scheme.settings, 20000, 3)
    assert [(r.setting.letters, r.counts) for r in loaded] == [
        (r.setting.letters, r.counts) for r in expected
    ]
    assert path.read_text().splitlines()[:2] == simulated[0].read_text().splitlines()[:2]


def test_certify_rejects_foreign_scheme(capsys, tmp_path, simulated):
    digest = by_kind(simulated[1], "records")["scheme"]
    path = edited_copy(
        simulated, tmp_path, lambda lines: [ln.replace(digest, "0" * 64) for ln in lines]
    )
    code, records = run_cli(capsys, "certify", "--records", str(path))
    assert code == 2
    assert records[-1]["record"] == "error"


@pytest.mark.parametrize(
    "old, new", [("scheme={digest} ", ""), ("shots=20000.0 ", "shots=20001.0 ")],
    ids=["no-scheme", "edited-shots"],
)
def test_certify_rejects_a_bad_header(capsys, tmp_path, simulated, old, new):
    old = old.format(digest=by_kind(simulated[1], "records")["scheme"])
    path = edited_copy(simulated, tmp_path, lambda lines: [ln.replace(old, new) for ln in lines])
    assert path.read_text() != simulated[0].read_text()
    code, records = run_cli(capsys, "certify", "--records", str(path))
    assert code == 2
    assert records[-1]["kind"] == "malformed_input"


def test_certify_rejects_fractional_counts(capsys, tmp_path, simulated):
    # move half a count between two outcomes: the total still matches shots=
    def edit(lines):
        first, second = [i for i, ln in enumerate(lines) if not ln.startswith("#")][:2]
        for i, delta in ((first, 0.5), (second, -0.5)):
            name, outcome, count = lines[i].split("\t")
            lines[i] = f"{name}\t{outcome}\t{int(count) + delta}"
        return lines

    path = edited_copy(simulated, tmp_path, edit)
    code, records = run_cli(capsys, "certify", "--records", str(path))
    assert code == 2
    assert records[-1]["kind"] == "malformed_input"


def test_certify_rejects_counts_that_miss_a_large_shot_count(capsys, tmp_path, simulated):
    # at 10^10 shots, five extra counts sit inside a 1e-9 relative slack;
    # a whole-number record must still sum to shots= exactly
    def edit(lines):
        lines = [ln.replace("shots=20000.0 ", "shots=10000000000.0 ") for ln in lines]
        for i, ln in enumerate(lines):
            if not ln.startswith("#"):
                name, outcome, count = ln.split("\t")
                lines[i] = f"{name}\t{outcome}\t{int(count) * 500000}"
        first = next(i for i, ln in enumerate(lines) if ln.startswith("zzxx\t"))
        name, outcome, count = lines[first].split("\t")
        lines[first] = f"{name}\t{outcome}\t{int(count) + 5}"
        return lines

    path = edited_copy(simulated, tmp_path, edit)
    code, records = run_cli(capsys, "certify", "--records", str(path))
    assert code == 2
    assert records[-1]["kind"] == "malformed_input"
    assert "counts sum to" in records[-1]["message"]


def test_certify_rejects_records_missing_a_setting(capsys, tmp_path, simulated):
    # the cover check or the digest check refuses each of them, and a
    # header with no records at all
    for name in by_kind(simulated[1], "records")["settings"] + [""]:
        path = edited_copy(
            simulated,
            tmp_path,
            lambda lines: [ln for ln in lines if ln.startswith("#") or not ln.startswith(name)],
        )
        code, records = run_cli(capsys, "certify", "--records", str(path))
        assert code == 2, name
        assert records[-1]["kind"] == "malformed_input"


def test_malformed_inputs_exit_two(capsys, tmp_path):
    bad_state = tmp_path / "bad.json"
    bad_state.write_text("{this is not json")
    code, records = run_cli(capsys, "ppt", "--state", str(bad_state))
    assert code == 2
    assert records[-1]["record"] == "error"

    code, records = run_cli(capsys, "certify", "--records", str(tmp_path / "nope.tsv"))
    assert code == 2

    not_unitary = tmp_path / "matrix.json"
    not_unitary.write_text(json.dumps({"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}))
    code, records = run_cli(capsys, "gen", str(not_unitary), "--out", str(tmp_path / "x.json"))
    assert code == 2

    # unitary files whose entries are not [re, im] pairs of numbers
    for doc in ({"matrix": [1, 0, 0, 1]}, [1, 2], {"matrix": [["a", "b"]]}):
        not_entries = tmp_path / "entries.json"
        not_entries.write_text(json.dumps(doc))
        code, records = run_cli(capsys, "gen", str(not_entries), "--out", str(tmp_path / "x.json"))
        assert code == 2, doc
        assert records[-1]["kind"] == "malformed_input"


@pytest.mark.parametrize("labels", [[1, 2, 3, 4], [["A"], "B", "C", "D"], "ABCD"])
def test_ppt_refuses_state_labels_that_are_not_strings(capsys, tmp_path, labels):
    doc = bk.serialize.state_document(bk.rho_h())
    doc["labels"] = labels
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, records = run_cli(capsys, "ppt", "--state", str(path))
    assert code == 2
    assert records[-1]["kind"] == "malformed_input"


def test_generic_family_member_simulates_and_certifies(capsys, tmp_path):
    # a member built from a random 2 x 2 unitary needs more settings than
    # the flagship (a bound of 12); the search runs until it covers instead
    # of refusing a valid state
    rng = np.random.default_rng(3)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    unitary = tmp_path / "u.json"
    unitary.write_text(json.dumps({"matrix": [[z.real, z.imag] for z in u.reshape(-1)]}))
    state = tmp_path / "state.json"
    code, _ = run_cli(capsys, "gen", str(unitary), "--out", str(state))
    assert code == 0
    path = tmp_path / "shots.tsv"
    code, records = run_cli(capsys, "simulate", "--state", str(state), "--shots", "10000",
                            "--seed", "0", "--out", str(path))
    assert code == 0
    size = len(by_kind(records, "records")["settings"])
    targets = cli._verification_targets(bk.load_state(state))
    bound = observables._flattening_bound(np.array([bk.pauli_decompose(t).real.reshape(-1) for t in targets]))
    assert bound == 12
    assert size >= bound
    code, records = run_cli(capsys, "certify", "--state", str(state), "--records", str(path))
    assert code == 0
    assert not by_kind(records, "certification")["positive"]


def test_inconsistent_records_exit_three(capsys, tmp_path, flagship, full_scheme):
    # concentrate every setting's shots on the outcome that pushes the
    # coherence estimate past any spectrum the correlation weight allows
    digest = bk.scheme_hash(full_scheme)
    n = len(full_scheme.settings)
    coeff_r1 = np.asarray(full_scheme.coefficients)[1].reshape(n, 16)
    shots = 100000
    records = []
    for i, setting in enumerate(full_scheme.settings):
        if setting.letters == "zzxx":
            outcome = (1, -1, 1, 1)  # anticorrelated key bits
        else:
            outcome = OUTCOMES[int(np.argmax(coeff_r1[i] @ FUNCTIONAL_VALUES))]
        records.append(bk.ShotRecord(setting, [shots if o == outcome else 0 for o in OUTCOMES], shots))
    path = tmp_path / "adversarial.tsv"
    bk.save_records(records, path, seed=0, scheme_digest=digest)

    code, out = run_cli(capsys, "certify", "--records", str(path))
    assert code == 3
    error = out[-1]
    assert error["record"] == "error"
    assert error["kind"] == "certification_infeasible"


@pytest.fixture(scope="module")
def fourier_d3_state(tmp_path_factory):
    path = tmp_path_factory.mktemp("fourier") / "f.json"
    assert cli.run(["gen", "fourier-d3", "--out", str(path)]) == 0
    return path


def test_robustness_bracket_widens_for_fourier_d3(capsys, fourier_d3_state):
    # the d = 3 member keeps a positive bound past the default noise_max of
    # 0.01: its threshold lies beyond the scanned range
    code, records = run_cli(capsys, "ppt", "--state", str(fourier_d3_state), "--robustness")
    assert code == 0
    summary = by_kind(records, "robustness_summary")
    assert summary["threshold_noise"] == 0.011619949340820312


@pytest.mark.parametrize("flag, value", [
    ("--noise-max", "2"), ("--noise-max", "-0.1"), ("--noise-max", "nan"),
    ("--noise-max", "inf"), ("--grid", "-1"), ("--extremality-span", "-0.1"),
    ("--extremality-span", "inf"), ("--extremality-span", "nan"),
])
def test_ppt_refuses_bad_scan_arguments_before_any_work(capsys, flag, value):
    code, records = run_cli(capsys, "ppt", "--extremality", "--robustness", flag, value)
    assert code == 2
    assert [r["record"] for r in records] == ["header", "error"]
    assert records[-1]["kind"] == "malformed_input"
    assert records[-1]["message"].startswith(f"{flag} must ")


@pytest.mark.parametrize("preset", ["hadamard", "fourier-d3"])
def test_cli_threshold_is_the_library_threshold(capsys, tmp_path, preset):
    # the bisection bracket is the library's own, whatever range is scanned
    path = tmp_path / "state.json"
    assert run_cli(capsys, "gen", preset, "--out", str(path))[0] == 0
    want = bk.robustness_threshold(bk.load_state(path))
    for extra in ([], ["--noise-max", "0.001"]):
        code, records = run_cli(capsys, "ppt", "--state", str(path), "--robustness", *extra)
        assert code == 0
        assert by_kind(records, "robustness_summary")["threshold_noise"] == want


@pytest.fixture(scope="module")
def identity_state(tmp_path_factory):
    """The identity member: valid, weights 1/2 and 1/2, key bound 0 at zero noise."""
    path = tmp_path_factory.mktemp("identity") / "i.json"
    assert cli.run(["gen", "identity", "--out", str(path)]) == 0
    return path


def test_ppt_robustness_of_a_state_without_key(capsys, identity_state):
    # no key at zero noise means no threshold, not a malformed input
    code, records = run_cli(capsys, "ppt", "--state", str(identity_state), "--robustness")
    assert code == 0
    summary = by_kind(records, "robustness_summary")
    assert summary["threshold_noise"] is None
    assert summary["largest_positive_noise"] is None
    assert bk.robustness_threshold(bk.load_state(identity_state)) is None


def test_simulate_prepared_refuses_other_states(
    capsys, tmp_path, identity_state, fourier_d3_state, dims_224_state
):
    # --prepared samples the noiseless flagship recipe only: another valid
    # state is unsupported (exit 4), a noisy request malformed (exit 2); both
    # are refused before the settings search runs (the d = 3 and 2x2x4 states
    # already as states that are not four qubits)
    out = str(tmp_path / "shots.tsv")
    for state in (identity_state, fourier_d3_state, dims_224_state):
        code, records = run_cli(capsys, "simulate", "--state", str(state), "--prepared",
                                "--shots", "1000", "--seed", "1", "--out", out)
        assert code == 4
        assert records[-1]["kind"] == "unsupported_state"
        if state == identity_state:
            assert records[-1]["message"] == (
                "--prepared samples the flagship recipe, not this state")
        assert not any(r["record"] == "diagnostics" for r in records)
    code, records = run_cli(capsys, "simulate", "--prepared", "--noise", "0.01",
                            "--shots", "1000", "--seed", "1", "--out", out)
    assert code == 2
    assert records[-1]["kind"] == "malformed_input"
    assert records[-1]["message"] == "--prepared samples the noiseless flagship recipe; drop --noise"
    assert not any(r["record"] == "diagnostics" for r in records)


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--shots", "0"], "shots must be at least 1"),
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--noise", "1.5"], "noise weight must lie in [0, 1]"),
        (["--shots", "0", "--prepared"], "shots must be at least 1"),
        (["--shots", "100000000000000000000"], "shots must be at most"),
        (["--shots", "100000000000000000000", "--prepared"], "shots must be at most"),
    ],
    ids=["shots", "seed", "noise", "prepared-shots", "huge-shots", "prepared-huge-shots"],
)
def test_simulate_refuses_bad_sampling_arguments(capsys, tmp_path, bad, message):
    # malformed sampling arguments (exit 2) are refused before the settings
    # search runs, so no diagnostics record is printed
    code, records = run_cli(capsys, "simulate", "--shots", "1000", "--seed", "1", *bad,
                            "--out", str(tmp_path / "shots.tsv"))
    assert code == 2
    assert records[-1]["kind"] == "malformed_input"
    assert message in records[-1]["message"]
    assert not any(r["record"] == "diagnostics" for r in records)
    assert not (tmp_path / "shots.tsv").exists()


@pytest.fixture(scope="module")
def dims_224_state(tmp_path_factory):
    """The flagship's matrix declared on dims (2, 2, 4): valid, not four qubits."""
    doc = bk.serialize.state_document(bk.rho_h())
    doc["dims"], doc["labels"] = [2, 2, 4], ["A", "B", "S"]
    path = tmp_path_factory.mktemp("dims224") / "s.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["observables"],
        ["settings"],
        ["simulate", "--shots", "10", "--seed", "0", "--out", "unused.tsv"],
        ["er", "--restarts", "1"],
        ["certify", "--records", "flagship-records"],
    ],
    ids=["observables", "settings", "simulate", "er", "certify"],
)
def test_four_qubit_commands_decline_a_d3_state(
    capsys, tmp_path, fourier_d3_state, dims_224_state, simulated, argv
):
    # neither a d = 3 member nor a (2, 2, 4) state is four qubits; certify
    # must refuse even flagship records rather than certify a floor
    argv = [str(simulated[0]) if a == "flagship-records" else
            str(tmp_path / a) if a.endswith(".tsv") else a for a in argv]
    for state in (fourier_d3_state, dims_224_state):
        code, records = run_cli(capsys, argv[0], "--state", str(state), *argv[1:])
        assert code == 4, state
        error = records[-1]
        assert error["record"] == "error"
        assert error["kind"] == "unsupported_state"
        assert not (tmp_path / "unused.tsv").exists()
