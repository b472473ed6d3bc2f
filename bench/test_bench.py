"""Tests of the benchmark itself: the traced call structure and failure accounting.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (imported first: pins the BLAS threads before numpy loads)
import tracer  # noqa: E402
import workloads  # noqa: E402


class SmallSwitch(workloads.SwitchShots):
    SHOTS = 400


class SmallWigner(workloads.WignerTomography):
    SHOTS = 300
    POINTS = 9


class SmallSweep(workloads.GainSweep):
    POINTS = 4


def traced(workload, i=0):
    """Run op ``i`` of a workload under the tracer; returns (result, per-op metrics)."""
    t = tracer.Tracer()
    t.install()
    try:
        args = workload.inputs(i)
        with t.op() as metrics:
            result = workload.run(args)
    finally:
        t.uninstall()
    return args, result, metrics


def assert_accounted(metrics):
    layers = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in tracer.LAYERS)
    assert abs(layers / metrics["wall_s"] - 1.0) < 0.01


def test_switch_call_structure(tmp_path):
    shots = SmallSwitch.SHOTS
    _, rc, m = traced(SmallSwitch(5, tmp_path))
    assert rc == 0
    assert m["cavity.gating_efficiency.calls"] == 4
    assert m["cavity.pulse_survival.calls"] == 2
    assert m["cavity.transmission_coeff.calls"] == 6 * shots  # 6 per gated/ungated shot pair
    assert m["measurement.detect.calls"] == 2 * shots
    assert m["cavity.shifted_frequency.calls"] == 2 * shots  # protocol's signal frequency, once per shot
    assert m["protocol.run_experiment.calls"] == 2
    assert m["protocol.label_records.calls"] == 3
    assert m["protocol.conditional_gate_field.calls"] == 2
    assert m["measurement.kmeans_1d.calls"] == 1
    assert m["cli.cmd_switch.calls"] == 1
    assert not any(k.endswith(".errors") for k in m)
    assert_accounted(m)


def test_wigner_call_structure(tmp_path):
    w = SmallWigner(5, tmp_path)
    argv, rc, m = traced(w)
    assert rc == 0
    w.check(argv, rc)
    assert m["cavity.gating_efficiency.calls"] == 2
    assert m["cavity.pulse_survival.calls"] == 1
    assert m["measurement.wigner.calls"] == 1
    assert m["hilbert.with_cutoff.calls"] == 1
    assert_accounted(m)


def test_gain_sweep_call_structure(tmp_path):
    points = SmallSweep.POINTS
    w = SmallSweep(5, tmp_path)
    argv, rc, m = traced(w)
    assert rc == 0
    w.check(argv, rc)
    assert m["semiclassical.steady_state_photons.calls"] == 8 * points
    assert m["analysis.predict_single_photon.calls"] == 4 * points
    assert m["semiclassical.gain_sweep.calls"] == 2
    assert_accounted(m)


def test_gate_budget_call_structure(tmp_path):
    w = workloads.GateBudget(5, tmp_path)
    pt, out, m = traced(w)
    w.check(pt, out)
    assert m["cavity.internal_loss_for_efficiency.calls"] == 1
    assert m["quads_in_root"] >= 3  # both bracket ends plus at least one brentq step
    assert m["cavity.gating_efficiency.calls"] == 1 + m["quads_in_root"]
    assert m["cavity.pulse_survival.calls"] == 1
    assert m["qubit.evolve_lindblad.calls"] == 1
    assert m["analysis.fit_eta.calls"] == 1
    assert_accounted(m)


def test_uninstall_restores_the_package():
    from photon_transistor import cavity, cli, protocol

    originals = (cavity.gating_efficiency, protocol.gating_efficiency, cli.main)
    t = tracer.Tracer()
    t.install()
    assert protocol.gating_efficiency is not originals[1]
    assert protocol.gating_efficiency.__wrapped__ is originals[1]
    t.uninstall()
    assert (cavity.gating_efficiency, protocol.gating_efficiency, cli.main) == originals


def test_shifted_frequency_is_counted_only_at_other_layers_names():
    from photon_transistor import cavity, protocol, semiclassical

    original = cavity.shifted_frequency
    t = tracer.Tracer()
    t.install()
    try:
        assert cavity.shifted_frequency is original
        assert protocol.shifted_frequency.__wrapped__ is original
        assert semiclassical.shifted_frequency.__wrapped__ is original
    finally:
        t.uninstall()


class Probe(workloads.Workload):
    """Records each run's input and whether the tracer was on."""

    name = "probe"
    cycle = 2

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.seen = []

    def inputs(self, i):
        return i

    def run(self, i):
        from photon_transistor import protocol

        self.seen.append((i, hasattr(protocol.gating_efficiency, "__wrapped__")))
        return i

    def check(self, i, result):
        pass


def test_paired_runs_each_input_untraced_and_traced(tmp_path):
    w = Probe(5, tmp_path)
    runner = run.Runner(w)
    plain, traced_times, per_op = runner.paired(1e-3, tracer.Tracer())
    pairs = len(plain)
    assert pairs > 0 and pairs % w.cycle == 0
    assert len(traced_times) == len(per_op) == pairs and runner.attempted == 2 * pairs
    assert w.seen[:4] == [(0, False), (0, True), (1, True), (1, False)]
    for k in range(pairs):
        (i, a), (j, b) = w.seen[2 * k : 2 * k + 2]
        assert i == j == k and a != b


def _corrupt_first_value(path: Path, column: int, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split(",")  # after the manifest comment and the header
    fields[column] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corrupted_output_counts_as_failed_op(tmp_path):
    w = SmallSweep(5, tmp_path)
    runner = run.Runner(w)
    assert runner.op() is not None
    assert (runner.attempted, runner.failed) == (1, 0)

    honest_run = w.run

    def corrupting_run(argv):
        rc = honest_run(argv)
        _corrupt_first_value(w.out / "gain_sweep.csv", 2, "nan")
        return rc

    w.run = corrupting_run
    assert runner.op() is None
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "non-finite" in runner.failures[0]


def test_asymmetric_wigner_map_counts_as_failed_op(tmp_path):
    w = SmallWigner(5, tmp_path)
    runner = run.Runner(w)
    honest_run = w.run

    def corrupting_run(argv):
        rc = honest_run(argv)
        cond = argv[argv.index("--condition") + 1]
        _corrupt_first_value(w.out / f"wigner_{cond}.csv", 2, "0.5")
        return rc

    w.run = corrupting_run
    assert runner.op() is None
    assert runner.failed == 1
    assert "W(x, p) != W(x, -p)" in runner.failures[0]


def test_nonzero_exit_counts_as_failed_op(tmp_path):
    w = SmallSweep(5, tmp_path)
    w.devices = [tmp_path / "missing.json"]
    runner = run.Runner(w)
    assert runner.op() is None
    assert runner.failed == 1
    assert "cli exited with 2" in runner.failures[0]


def test_errors_count_once_per_layer(tmp_path):
    w = SmallSweep(5, tmp_path)
    w.devices = [tmp_path / "missing.json"]
    _, rc, m = traced(w)
    assert rc == 2
    # raised in device.load, unwound through cli.cmd_gain_sweep and main
    assert (m["device.errors"], m["cli.errors"]) == (1, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    t = run.tail([float(x) for x in range(40)])
    assert (t["value"], t["beyond"], t["percentile"]) == (29.0, 10, 75.0)
    short = run.tail([3.0, 1.0, 2.0])
    assert (short["value"], short["beyond"]) == (2.0, 1)  # the median when n < 21
