"""The benchmark workloads, driven through whitebench.cli.main in-process.

Each workload writes its configs (with the benchmark seed as master_seed),
names the cells of a pass, runs a pass, and checks the pass's outputs.
See NOTES.md for why each workload exists and which layers it stresses.
"""
from __future__ import annotations

import json
from pathlib import Path

import gate


def write_config(path: Path, sections: dict):
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _join(values):
    return " ".join(str(v) for v in values)


class Workload:
    """One named set of inputs. Subclasses fill in the pass and its gate."""

    min_passes = 2

    def __init__(self, out_dir: Path, seed: int):
        self.out = out_dir
        self.seed = seed
        self.details = {}

    def probe_argv(self) -> list:
        """CLI arguments of a one-cell run, used to time a fresh process's set-up."""
        raise NotImplementedError

    def setup(self):
        """Untimed preparation in the measuring process, after the set-up probes."""

    def run(self, k: int, rec):
        """The timed pass."""
        raise NotImplementedError

    def expected(self, k: int) -> list:
        """Labels of the cells pass k runs."""
        raise NotImplementedError

    def failures(self, k: int) -> list:
        """Labels of the cells of pass k that failed the gate."""
        raise NotImplementedError


def _cli():
    from whitebench import cli

    return cli


class Sweep(Workload):
    """`whitebench sweep --workers 1` on the linear trainer; optionally also
    optimum_predictions for the `none` arm at some sizes."""

    MODES = ("none", "train", "full")

    def __init__(self, out_dir, seed, d, sizes, seeds, optimum_sizes=()):
        super().__init__(out_dir, seed)
        self.d, self.sizes, self.seeds, self.optimum_sizes = d, sizes, seeds, optimum_sizes
        self.config = out_dir / "sweep.cfg"
        self.probe_config = out_dir / "probe.cfg"
        self.csv = out_dir / "results" / "bench_sweep.csv"
        write_config(self.config, self._sections(sizes, self.MODES, seeds, out_dir / "results"))
        write_config(self.probe_config, self._sections(sizes[:1], ("none",), (0,), out_dir / "probe"))
        self.reference = None
        self.rc = None
        self.optimum_data = {}
        self.optimum_out = {}
        self.details["optimum_max_gap"] = {}

    def _sections(self, sizes, modes, seeds, output_dir):
        return {
            "experiment": {"id": "bench", "master_seed": self.seed, "seeds": _join(seeds),
                           "output_dir": output_dir},
            "data": {"source": "synthetic", "d": self.d, "spectrum": "power_law", "alpha": 2.0,
                     "n_val": 128, "n_test": 512},
            "whitening": {"modes": _join(modes)},
            "flow": {"grid_points": 200},
            "sweep": {"sizes": _join(sizes), "trainer": "linear"},
        }

    def probe_argv(self):
        return ["sweep", "--config", str(self.probe_config), "--workers", "1"]

    def setup(self):
        from whitebench import runconfig, runner, synth
        from whitebench.linear_flow import solve_optimum

        cfg = runconfig.parse_config(self.config)
        for n in self.optimum_sizes:
            # the same draw as the sweep's `none` cell at this size, seed index 0
            spec = synth.SyntheticSpec(
                d=self.d, n_train=n, n_val=128, n_test=512, alpha=2.0,
                teacher_seed=self.seed,
                seed=runner.derive_seed(self.seed, cfg.experiment_id, n, "none", 0),
            )
            drawn = synth.synthesize(spec)
            reference = solve_optimum(drawn.train, drawn.y_train).predict(drawn.test)
            self.optimum_data[n] = (drawn.train, drawn.y_train, drawn.test, reference)

    def run(self, k, rec):
        from whitebench import linear_flow

        self.rc = _cli().main(["sweep", "--config", str(self.config), "--workers", "1"])
        for n, (X, Y, X_test, _) in self.optimum_data.items():
            with rec.cell(f"optimum/n={n}"):
                self.optimum_out[n] = linear_flow.optimum_predictions(X, Y, X_test)

    def _sweep_cells(self):
        return [f"n={n}/{m}/seed={s}" for n in self.sizes for m in self.MODES for s in self.seeds]

    def expected(self, k):
        return self._sweep_cells() + [f"optimum/n={n}" for n in self.optimum_sizes]

    def failures(self, k):
        if self.rc != 0:
            return self.expected(k)
        current = self.csv.read_bytes()
        if self.reference is None:
            self.reference = current
        failed = gate.sweep_failures(self.reference, current, self._sweep_cells())
        gaps = {}
        for n, (_, _, _, reference) in self.optimum_data.items():
            gaps[f"optimum/n={n}"] = float(abs(self.optimum_out.pop(n) - reference).max())
            worst = self.details["optimum_max_gap"]
            worst[n] = max(worst.get(n, 0.0), gaps[f"optimum/n={n}"])
        return failed + gate.optimum_failures(gaps)


class VerifyAll(Workload):
    """`whitebench verify --suite all`. Its seeds are fixed in the verify code,
    so the benchmark seed does not change its inputs."""

    SUITES = ("orbit", "compression", "newton-equivalence", "null-prediction")

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.report = out_dir / "verify.json"

    def probe_argv(self):
        return ["verify", "--suite", "null-prediction", "--report", str(self.out / "probe.json")]

    def run(self, k, rec):
        self.rc = _cli().main(["verify", "--suite", "all", "--report", str(self.report)])

    def expected(self, k):
        return list(self.SUITES)

    def failures(self, k):
        report = json.loads(self.report.read_text(encoding="utf-8"))
        self.details["verify_checks"] = [
            {"suite": name, **check} for name, suite in report["suites"].items() for check in suite["checks"]
        ]
        failed = gate.verify_failures(report, self.SUITES)
        return failed if failed or self.rc == 0 else self.expected(k)


WORKLOADS = {
    "sweep_small": lambda out, seed: Sweep(out, seed, d=64, sizes=(16, 64, 256, 1024), seeds=(0, 1, 2)),
    "sweep_wide": lambda out, seed: Sweep(out, seed, d=512, sizes=(128, 1024, 2048), seeds=(0,),
                                          optimum_sizes=(128, 1024, 2048)),
    "verify_all": VerifyAll,
}
