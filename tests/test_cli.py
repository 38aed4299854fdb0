import concurrent.futures
import errno
import functools
import json
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import pytest

import pressqubo as pq
from pressqubo import bench
from pressqubo.cli import _variant_from_args, build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run("gen", "--toolkits", 3, "--machines", 2, "--capacity-bits", 4,
               "--seed", 5, "-o", path) == 0
    return path


@pytest.fixture
def qubo_file(instance_file, tmp_path):
    path = tmp_path / "q.coo"
    assert run("build", instance_file, "--variant", "raw", "--lm", "1e3",
               "--lt", "1e7", "-o", path) == 0
    return path


class TestGen:
    def test_variable_count_of_shape(self, tmp_path):
        out = tmp_path / "a.json"
        assert run("gen", "--toolkits", 3, "--machines", 2, "--capacity-bits", 8,
                   "--seed", 7, "-o", out) == 0
        inst = pq.load_instance(out)
        assert pq.build_qubo(inst, pq.RoundedVariant()).n == 22

    def test_missing_output_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--toolkits", 3, "--machines", 2, "--capacity-bits", 8)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("gen", "--toolkits", 4, "--machines", 2, "--capacity-bits", 5, "--seed", 3)
        assert run(*args, "-o", a) == 0
        assert run(*args, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert run("gen", "--toolkits", 2, "--machines", 2, "--capacity-bits", 3,
                   "--seed", 1, "-o", out, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variables"] == 2 * 2 + 2 * 3

    def test_impossible_shape_exit_code(self, tmp_path, capsys):
        assert run("gen", "--toolkits", 9, "--machines", 1, "--capacity-bits", 1,
                   "--seed", 0, "-o", tmp_path / "x.json") == 4


def compiled(instance_file, variant):
    return pq.build_qubo(pq.sanitize_instance(pq.load_instance(instance_file)), variant)


class TestBuild:
    def test_writes_coefficients_and_sidecar(self, qubo_file, instance_file):
        q = pq.load_qubo(qubo_file)
        assert q.varmap is not None
        assert q == compiled(instance_file, pq.RawVariant(1000, 10**7))

    def test_rounded_variant(self, instance_file, tmp_path):
        out = tmp_path / "r.coo"
        assert run("build", instance_file, "--variant", "rounded", "-o", out) == 0
        assert pq.load_qubo(out) == compiled(instance_file, pq.RoundedVariant())

    @pytest.mark.parametrize("kind, variant", [("raw", pq.RawVariant(10**5, 10**9)),
                                               ("scaled", pq.ScaledVariant(1))])
    def test_unset_flags_keep_their_default_values(self, instance_file, tmp_path, kind,
                                                    variant):
        out = tmp_path / "q.coo"
        assert run("build", instance_file, "--variant", kind, "-o", out) == 0
        assert pq.load_qubo(out) == compiled(instance_file, variant)

    def test_off_grid_scale_warns_but_succeeds(self, instance_file, tmp_path, capsys):
        out = tmp_path / "s.coo"
        assert run("build", instance_file, "--variant", "scaled", "--ls", "0.3",
                   "-o", out) == 0
        assert "off the default grid" in capsys.readouterr().err

    def test_off_grid_penalty_warns_once_naming_it(self, instance_file, tmp_path, capsys):
        out = tmp_path / "q.coo"
        assert run("build", instance_file, "--variant", "raw", "--lm", "7", "-o", out) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: machine penalty 7 is off the default grid ['1000', '10000', '100000']"]
        assert pq.load_qubo(out) == compiled(instance_file, pq.RawVariant(7, 10**9))

    @pytest.mark.parametrize("ls", ["-1", "0"])
    def test_invalid_scale_is_usage_error_without_warning(self, instance_file, tmp_path,
                                                          capsys, ls):
        assert run("build", instance_file, "--variant", "scaled", "--ls", ls,
                   "-o", tmp_path / "s.coo") == 2
        err = capsys.readouterr().err
        assert "must be positive" in err and "warning" not in err

    def test_missing_instance_is_io_error(self, tmp_path):
        assert run("build", tmp_path / "ghost.json", "--variant", "raw",
                   "-o", tmp_path / "q.coo") == 5

    def test_bad_penalty_is_usage_error(self, instance_file, tmp_path):
        assert run("build", instance_file, "--variant", "raw", "--lm", "-5",
                   "-o", tmp_path / "q.coo") == 2


class TestSolve:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--solver", "sa", "--steps", 100, "--restarts", 30, "--seed", 1),
            ("--solver", "random", "--shots", 50, "--seed", 1),
            ("--solver", "lrqaoa", "--p", 1, "--shots", 50, "--seed", 1),
            ("--solver", "brute"),
        ],
    )
    def test_each_solver_writes_samples(self, qubo_file, tmp_path, flags):
        out = tmp_path / "samples.csv"
        assert run("solve", qubo_file, *flags, "-o", out) == 0
        samples = pq.load_sampleset(out)
        assert samples.total >= 1

    def test_brute_guard_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        assert run("gen", "--toolkits", 3, "--machines", 2, "--capacity-bits", 12,
                   "--seed", 1, "-o", inst) == 0  # 6 + 24 = 30 variables
        q = tmp_path / "big.coo"
        assert run("build", inst, "--variant", "rounded", "-o", q) == 0
        assert run("solve", q, "--solver", "brute", "-o", tmp_path / "s.csv") == 3

    def test_refused_allocation_exit_code(self, qubo_file, tmp_path, monkeypatch, capsys):
        # An oversized allocation can succeed lazily where memory is
        # overcommitted, so the sampler raises the error itself.
        def refused(*args):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(pq.solvers, "simulated_anneal", refused)
        out = tmp_path / "s.csv"
        assert run("solve", qubo_file, "--solver", "sa", "-o", out) == 3
        assert "Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_draw_mapping_exits_3(self, tmp_path, monkeypatch, capsys):
        # Patched: an unpatched mmap.mmap(-1, 10**15) raises this OSError.
        def refused(fileno, length, *args, **kwargs):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        inst, q = tmp_path / "small.json", tmp_path / "s.coo"
        pq.save_instance(pq.bundled_instance("press-small"), inst)
        assert run("build", inst, "--variant", "rounded", "-o", q) == 0
        monkeypatch.setattr(pq.solvers.mmap, "mmap", refused)
        out = tmp_path / "out.csv"
        assert run("solve", q, "--solver", "sa", "-o", out) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: the system refused a mapping of \d+ bytes for annealing "
                            r"draws\n", err)
        assert not out.exists()

    def test_postprocess_flag(self, qubo_file, tmp_path):
        out = tmp_path / "samples.csv"
        assert run("solve", qubo_file, "--solver", "random", "--shots", 40,
                   "--seed", 2, "--postprocess", "-o", out) == 0
        assert pq.load_sampleset(out).meta["postprocessed"]

    @pytest.mark.parametrize("flags", [
        ("--solver", "sa", "--t-start", "inf"),
        ("--solver", "lrqaoa", "--delta-gamma", "nan"),
        ("--solver", "lrqaoa", "--delta-beta", "inf"),
    ])
    def test_non_finite_solver_flag_is_usage_error(self, qubo_file, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        assert run("solve", qubo_file, *flags, "-o", out) == 2
        assert "must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["sa", "random"])
    def test_coefficient_beyond_float64_is_usage_error(self, tmp_path, capsys, solver):
        path = tmp_path / "huge.coo"
        path.write_text("2 0\n0 0 1e400\n0 1 -1\n")
        out = tmp_path / "s.csv"
        assert run("solve", path, "--solver", solver, "-o", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float64" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_deterministic(self, qubo_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ("--solver", "sa", "--steps", 80, "--restarts", 20, "--seed", 9)
        assert run("solve", qubo_file, *flags, "-o", a) == 0
        assert run("solve", qubo_file, *flags, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def sweep_dir(instance_file, tmp_path):
    plan = {
        "instances": [str(instance_file)],
        "variants": [{"kind": "raw"}, {"kind": "scaled"}, {"kind": "rounded"}],
        "solvers": [{"name": "sa", "params": {"steps": 50, "restarts": 10}}],
        "seeds": [0],
        "postprocess": False,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "out"
    assert run("sweep", plan_path, "-o", out) == 0
    return out


class TestSweepAndReport:
    def test_writes_all_reports(self, sweep_dir):
        for name in ("runs.csv", "metrics.csv", "report.json"):
            assert (sweep_dir / name).exists()
        lines = (sweep_dir / "runs.csv").read_text().splitlines()
        assert len(lines) == 1 + 12

    def test_rerun_byte_identical(self, instance_file, tmp_path, sweep_dir):
        plan_path = tmp_path / "plan.json"
        out2 = tmp_path / "out2"
        assert run("sweep", plan_path, "-o", out2) == 0
        for name in ("runs.csv", "metrics.csv", "report.json"):
            assert (sweep_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_report_summary(self, sweep_dir, capsys):
        assert run("report", sweep_dir) == 0
        assert "valid=" in capsys.readouterr().out

    def test_select_best_table(self, sweep_dir, capsys):
        assert run("report", sweep_dir, "--select-best") == 0
        out = capsys.readouterr().out
        assert "raw(" in out or "scaled(" in out or "rounded(" in out

    def test_report_json_mode(self, sweep_dir, capsys):
        assert run("report", sweep_dir, "--select-best", "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert isinstance(rows, list) and rows

    def test_report_json_metrics(self, sweep_dir, capsys):
        assert run("report", sweep_dir, "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows == json.loads((sweep_dir / "report.json").read_text())["metrics"]

    @pytest.mark.parametrize("content", [{"metrics": [], "best_penalties": []}, {}])
    def test_select_best_without_scored_runs(self, tmp_path, capsys, content):
        (tmp_path / "report.json").write_text(json.dumps(content))
        assert run("report", tmp_path, "--select-best") == 0
        assert capsys.readouterr().out == "no scored runs to select from\n"
        assert run("report", tmp_path, "--select-best", "--json") == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize("content, flags", [
        ([], ()),
        ([], ("--select-best",)),
        ({"best_penalties": [5]}, ("--select-best",)),
        ({"best_penalties": [{"group": 5, "variant_kind": "raw", "variant": "x"}]},
         ("--select-best",)),
        ({"best_penalties": {}}, ("--select-best", "--json")),
        ({"metrics": [{"instance_id": "a"}]}, ()),
        ({"metrics": [{"instance_id": "a", "variant": "v", "solver": "sa",
                       "solver_params": "", "percent_valid": [1]}]}, ()),
        ({"metrics": "rows"}, ("--json",)),
    ])
    def test_malformed_report_is_usage_error(self, tmp_path, capsys, content, flags):
        (tmp_path / "report.json").write_text(json.dumps(content))
        assert run("report", tmp_path, *flags) == 2
        assert "report.json" in capsys.readouterr().err

    def test_dead_worker_exits_3_without_reports(self, instance_file, tmp_path, monkeypatch,
                                                 capsys):
        # A fork pool, so the patched build reaches the worker processes.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        build, parent = pq.qubo.build_qubo, os.getpid()

        def dies_on_scaled(inst, variant):
            if variant.kind == "scaled" and os.getpid() != parent:
                os._exit(1)
            return build(inst, variant)

        monkeypatch.setattr(pq.qubo, "build_qubo", dies_on_scaled)
        plan = {"instances": [str(instance_file)],
                "variants": [{"kind": "rounded"}, {"kind": "scaled", "ls": [1]}],
                "solvers": [{"name": "random", "params": {"shots": 10}}], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out = tmp_path / "out"
        assert run("sweep", plan_path, "-o", out, "--workers", 2) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker process died")
        assert "no reports were written" in err
        assert not out.exists()

    def test_missing_report_dir_is_io_error(self, tmp_path):
        assert run("report", tmp_path / "nowhere") == 5

    def test_bad_plan_is_usage_error(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"instances": []}))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2

    def test_relative_instance_paths_resolve_against_plan_file(
        self, instance_file, tmp_path, monkeypatch
    ):
        plan = {
            "instances": [instance_file.name],
            "variants": [{"kind": "rounded"}],
            "solvers": [{"name": "random", "params": {"shots": 20}}],
            "seeds": [0],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 0


def _variant_as_string(plan, inst):
    plan["variants"] = ["raw"]


def _instances_as_number(plan, inst):
    plan["instances"] = 5


def _instance_as_list(plan, inst):
    plan["instances"] = [["inst.json"]]


def _solver_name_as_list(plan, inst):
    plan["solvers"][0]["name"] = ["random"]


def _solver_name_as_object(plan, inst):
    plan["solvers"][0]["name"] = {"a": 1}


def _capacity_as_number(plan, inst):
    inst["capacity"] = 5


def _null_cost(plan, inst):
    inst["cost"][0][0] = None


def _true_cost(plan, inst):
    inst["cost"][0][0] = True


def _true_capacity(plan, inst):
    inst["capacity"][1] = True


def _second_decision_at_zero(doc):
    doc["decision"][1]["index"] = 0


def _slack_weights_7_1(doc):
    [first, second] = [e for e in doc["slack"] if e["machine"] == doc["machines"][0]]
    first["weight"], second["weight"] = 7, 1


def _permuted_slack_indices(doc):
    doc["slack"][0]["index"], doc["slack"][1]["index"] = (doc["slack"][1]["index"],
                                                          doc["slack"][0]["index"])


def _reordered_decision_entries(doc):
    doc["decision"][:2] = doc["decision"][1::-1]


def _variant_as_written_before(doc):
    doc["variant"] = {"kind": "raw", "lm": "1000", "lt": "10000000"}


def _without_toolkits(doc):
    del doc["toolkits"]


class TestMalformedInput:
    @pytest.mark.parametrize("corrupt", [_variant_as_string, _instances_as_number,
                                         _instance_as_list, _solver_name_as_list,
                                         _solver_name_as_object, _capacity_as_number,
                                         _null_cost, _true_cost, _true_capacity])
    def test_malformed_plan_or_instance_is_usage_error(self, instance_file, tmp_path,
                                                        corrupt, capsys):
        inst = json.loads(instance_file.read_text())
        plan = {"instances": ["inst.json"], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}
        corrupt(plan, inst)
        instance_file.write_text(json.dumps(inst))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", [
        {"name": "random", "params": {"shotz": 3}},
        {"name": "sa", "params": {"shots": 3, "restarts": 4}},
    ])
    def test_unknown_solver_parameter_stops_the_sweep(self, instance_file, tmp_path, solver):
        plan = {"instances": [str(instance_file)], "variants": [{"kind": "rounded"}],
                "solvers": [solver], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, named", [
        (("sweep", {"kind": "raw", "Im": ["1e3"]}), "'Im'"),
        (("sweep", {"kind": "rounded", "lm": [5]}), "'lm'"),
        (("sweep", {"kind": "scaled", "ls": [1], "extra": 1}), "'extra'"),
        (("build", "rounded", "--lm", "5", "--lt", "7"), "--lm, --lt"),
        (("build", "raw", "--ls", "0.3"), "--ls"),
    ])
    def test_variant_parameter_the_kind_does_not_take_is_usage_error(
            self, instance_file, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        if argv[0] == "sweep":
            plan = {"instances": [str(instance_file)], "variants": [argv[1]],
                    "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}
            plan_path = tmp_path / "plan.json"
            plan_path.write_text(json.dumps(plan))
            argv = ("sweep", plan_path)
        else:
            argv = ("build", instance_file, "--variant", *argv[1:])
        assert run(*argv, "-o", out) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, entry, named", [
        ("variants", {"kind": "raw", "lm": []}, "'lm'"),
        ("solvers", {"name": "sa", "params": {"steps": []}}, "'steps'"),
    ], ids=["variant", "solver"])
    def test_empty_parameter_list_stops_the_sweep(self, instance_file, tmp_path, capsys,
                                                  key, entry, named):
        plan = {"instances": [str(instance_file)], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}
        plan[key].append(entry)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert named in err and repr(entry) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field,value", [
        ("postprocess", "false"),
        ("seeds", [1.5]),
        ("seeds", [True]),
        ("seeds", [-1]),
    ])
    def test_mistyped_seed_or_postprocess_stops_the_sweep(self, instance_file, tmp_path,
                                                          field, value, capsys):
        plan = {"instances": [str(instance_file)], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}
        plan[field] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params", [
        {"shots": 2.5},
        {"shots": True},
        {"restarts": "20"},
        {"shots": 0},
        {"steps": 0},
        {"delta_gamma": -1},
        {"t_start": "abc"},
        {"t_start": 10**400},
        {"p": [1, 0]},
        {"delta_beta": [0.6, float("inf")]},
    ])
    def test_mistyped_solver_parameter_stops_the_sweep(self, instance_file, tmp_path,
                                                       params, capsys):
        name = {"shots": "random", "p": "lrqaoa", "delta_gamma": "lrqaoa",
                "delta_beta": "lrqaoa"}.get(next(iter(params)), "sa")
        plan = {"instances": [str(instance_file)], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": name, "params": params}], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        assert repr(next(iter(params))) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("repeat", [
        {"seeds": [0, 0]},
        {"variants": [{"kind": "rounded"}, {"kind": "rounded"}]},
        {"solvers": [{"name": "random", "params": {"shots": 5}}] * 2},
        {"solvers": [{"name": "random", "params": {"shots": [5, 5]}}]},
        {"variants": [{"kind": "raw", "lm": ["1000", "1e3"], "lt": ["1e7"]}]},
        {"instances": ["inst.json", "copy.json"]},
        {"solvers": [{"name": "lrqaoa", "params": {"shots": 5, "delta_gamma": [1, 1.0]}}]},
    ], ids=["seed", "variant", "solver", "shots", "lm", "instance-id", "delta_gamma"])
    def test_plan_repeating_a_cell_stops_the_sweep(self, instance_file, tmp_path, repeat,
                                                   capsys):
        (tmp_path / "copy.json").write_text(instance_file.read_text())  # the same id
        plan = {"instances": ["inst.json"], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0],
                **repeat}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "repeats the cell" in err and "shots=5" in err and "seed 0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_is_usage_error(self, instance_file, tmp_path, workers):
        plan = {"instances": [str(instance_file)], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "--workers", workers, "-o", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_sidecar_of_another_size_is_usage_error(self, qubo_file, tmp_path):
        sidecar = pq.qubo.sidecar_path(qubo_file)
        doc = json.loads(sidecar.read_text())
        doc["n"] += 1
        sidecar.write_text(json.dumps(doc))
        assert run("solve", qubo_file, "--solver", "random", "-o", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize("kind", ["plan", "instance", "sidecar", "report"])
    def test_malformed_json_is_usage_error(self, qubo_file, tmp_path, capsys, kind):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "instances": ["inst.json"], "variants": [{"kind": "rounded"}],
            "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}))
        path, argv = {
            "plan": (plan_path, ("sweep", plan_path, "-o", tmp_path / "out")),
            "instance": (tmp_path / "inst.json", ("build", tmp_path / "inst.json", "--variant",
                                                  "rounded", "-o", tmp_path / "r.coo")),
            "sidecar": (pq.qubo.sidecar_path(qubo_file),
                        ("solve", qubo_file, "--solver", "random", "-o", tmp_path / "s.csv")),
            "report": (tmp_path / "report.json", ("report", tmp_path)),
        }[kind]
        path.write_text("{")
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["plan", "instance", "sidecar", "report"])
    def test_malformed_json_error_names_the_file(self, qubo_file, tmp_path, capsys, kind):
        plan_path = tmp_path / "plan.json"
        inst_path = tmp_path / "inst.json"
        plan_path.write_text(json.dumps({
            "instances": [inst_path.name], "variants": [{"kind": "rounded"}],
            "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}))
        path, argv = {
            "plan": (plan_path, ("sweep", plan_path, "-o", tmp_path / "out")),
            "instance": (inst_path, ("sweep", plan_path, "-o", tmp_path / "out")),
            "sidecar": (pq.qubo.sidecar_path(qubo_file),
                        ("stats", qubo_file)),
            "report": (tmp_path / "report.json", ("report", tmp_path)),
        }[kind]
        path.write_text('{"n": 1,\n')
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        (("toolkits", 0), ["t0"]),
        (("machines", 0), 3),
        (("decision", 0, "toolkit"), ["t0"]),
        (("decision", 0, "machine"), {"m": 0}),
        (("slack", 0, "machine"), None),
        (("slack", 0, "bit"), "0"),
        (("slack", 0, "bit"), 0.0),
        (("slack", 0, "weight"), [1]),
        (("slack", 0, "weight"), True),
    ])
    @pytest.mark.parametrize("command", ["solve", "stats"])
    def test_sidecar_name_or_number_of_the_wrong_type_is_usage_error(
            self, qubo_file, tmp_path, capsys, field, value, command):
        sidecar = pq.qubo.sidecar_path(qubo_file)
        doc = json.loads(sidecar.read_text())
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        sidecar.write_text(json.dumps(doc))
        flags = ("--solver", "random", "-o", tmp_path / "s.csv") if command == "solve" else ()
        assert run(command, qubo_file, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sidecar") and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ((), []),
        (("n",), "6"),
        (("variant",), ["rounded"]),
        (("toolkits",), "t0"),
        (("machines",), {"m0": 1}),
        (("decision",), {"toolkit": "t0"}),
        (("slack",), 5),
        (("decision", 0), "x"),
        (("slack", 0), 7),
        (("decision", 0, "index"), "0"),
        (("decision", 0, "index"), 1.5),
        (("slack", 0, "index"), True),
        (("slack", 0, "index"), -1),
        (("decision", 0, "index"), 10**6),
    ])
    @pytest.mark.parametrize("command", ["solve", "stats"])
    def test_malformed_sidecar_shape_is_usage_error(self, qubo_file, tmp_path, capsys,
                                                    field, value, command):
        sidecar = pq.qubo.sidecar_path(qubo_file)
        doc = json.loads(sidecar.read_text())
        if field:
            target = doc
            for key in field[:-1]:
                target = target[key]
            target[field[-1]] = value
        else:
            doc = value
        sidecar.write_text(json.dumps(doc))
        flags = ("--solver", "random", "-o", tmp_path / "s.csv") if command == "solve" else ()
        assert run(command, qubo_file, *flags) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("variant, corrupt, named", [
        (("rounded",), _second_decision_at_zero, "'decision[1].index'"),
        (("rounded",), _slack_weights_7_1, "'n'"),
        (("rounded",), _permuted_slack_indices, "'slack[0].index'"),
        (("rounded",), _reordered_decision_entries, "'decision[0].index'"),
        (("rounded",), _without_toolkits, "'toolkits'"),
        (("raw", "--lm", "1e3", "--lt", "1e7"), _variant_as_written_before, "'variant'"),
    ])
    @pytest.mark.parametrize("command", ["solve", "stats"])
    def test_sidecar_that_build_would_not_write_is_usage_error(
            self, tmp_path, capsys, variant, corrupt, named, command):
        inst, path = tmp_path / "inst.json", tmp_path / "q.coo"
        assert run("gen", "--toolkits", 2, "--machines", 2, "--capacity-bits", 2,
                   "--seed", 1, "-o", inst) == 0
        assert run("build", inst, "--variant", *variant, "-o", path) == 0
        sidecar = pq.qubo.sidecar_path(path)
        doc = json.loads(sidecar.read_text())
        corrupt(doc)
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^" + re.escape(f"sidecar {sidecar}: ")):
            pq.load_qubo(path)
        capsys.readouterr()
        flags = ("--solver", "random", "-o", tmp_path / "s.csv") if command == "solve" else ()
        assert run(command, path, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sidecar {sidecar}: ") and "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize("text, line, why", [
        ("2\n0 0 1\n", "2", "need 2 fields, got 1"),
        ("2 0 5\n0 0 1\n", "2 0 5", "need 2 fields, got 3"),
        ("x 0\n0 0 1\n", "x 0", "invalid literal for int()"),
        ("2 1/0\n0 0 1\n", "2 1/0", "zero denominator in '1/0'"),
        ("2 0\n0 0 1\n0 1\n", "0 1", "need 3 fields, got 2"),
        ("2 0\n0 0 1\n0 x 1\n", "0 x 1", "invalid literal for int() with base 10: 'x'"),
        ("2 0\n0 0 1/0\n", "0 0 1/0", "zero denominator in '1/0'"),
    ])
    def test_coefficient_file_errors_name_the_file_and_the_line(self, tmp_path, capsys,
                                                                text, line, why):
        path = tmp_path / "q.coo"
        path.write_text(text)
        assert run("solve", path, "--solver", "random", "-o", tmp_path / "s.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line {line!r} is not ")
        assert why in err and "Traceback" not in err

    def test_sweep_names_the_instance_with_bad_content(self, instance_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(instance_file.read_text())
        doc["cost"][0][0] = -1
        bad.write_text(json.dumps(doc))
        plan = {"instances": ["inst.json", "bad.json"], "variants": [{"kind": "rounded"}],
                "solvers": [{"name": "random", "params": {"shots": 5}}], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {bad}: negative cost value\n"
        assert run("build", bad, "--variant", "rounded", "-o", tmp_path / "q.coo") == 2
        assert capsys.readouterr().err == f"error: {bad}: negative cost value\n"

    def test_repeated_coefficient_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "q.coo"
        path.write_text("2 0\n0 1 -1\n0 0 1\n0 1 5\n")
        assert run("solve", path, "--solver", "brute", "-o", tmp_path / "s.csv") == 2
        assert "'0 1 5'" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["random", "brute"])
    def test_no_variables_is_usage_error(self, tmp_path, solver):
        path = tmp_path / "q.coo"
        path.write_text("0 0\n")
        out = tmp_path / "s.csv"
        assert run("solve", path, "--solver", solver, "-o", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("solver", sorted(bench.SOLVERS))
    def test_negative_seed_is_usage_error(self, qubo_file, tmp_path, solver, capsys):
        out = tmp_path / "s.csv"
        assert run("solve", qubo_file, "--solver", solver, "--seed", -1, "-o", out) == 2
        assert "seeds must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["2 0\n0 0 1/0\n", "2 1/0\n0 0 1\n"])
    def test_zero_denominator_in_coefficient_file_is_usage_error(self, tmp_path, capsys,
                                                                  text):
        path = tmp_path / "q.coo"
        path.write_text(text)
        assert run("solve", path, "--solver", "random", "-o", tmp_path / "s.csv") == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_zero_denominator_in_instance_is_usage_error(self, instance_file, tmp_path,
                                                         capsys):
        inst = json.loads(instance_file.read_text())
        inst["cost"][0][0] = "1/0"
        instance_file.write_text(json.dumps(inst))
        assert run("build", instance_file, "--variant", "rounded",
                   "-o", tmp_path / "q.coo") == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_zero_denominator_in_penalty_grid_or_flag_is_usage_error(self, instance_file,
                                                                      tmp_path):
        assert run("build", instance_file, "--variant", "raw", "--lm", "1/0",
                   "-o", tmp_path / "q.coo") == 2
        plan = {"instances": [str(instance_file)],
                "variants": [{"kind": "raw", "lm": ["1/0"], "lt": [1]}],
                "solvers": [{"name": "random"}], "seeds": [0]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run("sweep", plan_path, "-o", tmp_path / "out") == 2

    def test_flag_the_solver_does_not_take_is_usage_error(self, qubo_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("solve", qubo_file, "--solver", "sa", "--shots", 5, "--steps", 10,
                   "--restarts", 4, "-o", out) == 2
        assert "--shots" in capsys.readouterr().err
        assert not out.exists()
        assert run("solve", qubo_file, "--solver", "sa", "--steps", 10, "--restarts", 4,
                   "-o", out) == 0


def test_solve_flags_are_the_registry_parameters():
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    actions = {a.dest: a for a in sub.choices["solve"]._actions}
    registry = {key: solver.kind(key) for solver in bench.SOLVERS.values()
                for key in solver.keys()}
    assert set(actions) - set(registry) == {"help", "qubo", "solver", "seed", "postprocess",
                                            "output", "json"}
    for key, kind in registry.items():
        assert actions[key].option_strings == ["--" + key.replace("_", "-")]
        assert actions[key].type is kind


def build_actions():
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    return {a.dest: a for a in sub.choices["build"]._actions}


def test_build_flags_are_the_variant_table_labels():
    actions = build_actions()
    labels = {label for _, grids in pq.qubo.VARIANT_KINDS.values() for label in grids}
    assert labels == {"lm", "lt", "ls"}
    assert set(actions) - labels == {"help", "instance", "variant", "output", "json"}
    for label in labels:
        assert actions[label].option_strings == ["--" + label]
    assert actions["lm"].help == "machine penalty (raw; default 100000)"


@dataclass(frozen=True)
class HalvedVariant(pq.qubo._Variant):
    """A kind that exists only in the test below; it shares ``lm`` with raw."""

    machine_penalty: Fraction
    half_weight: Fraction

    kind = "halved"


def test_a_new_kind_gets_its_flags_and_defaults_from_the_table(monkeypatch, capsys):
    monkeypatch.setitem(pq.qubo.VARIANT_KINDS, "halved",
                        (HalvedVariant, {"lm": (Fraction(1, 2), Fraction(3)),
                                         "hw": (Fraction(2), Fraction(5))}))
    actions = build_actions()
    assert actions["lm"].help == ("machine penalty (raw; default 100000); "
                                  "machine penalty (halved; default 3)")
    assert actions["hw"].help == "half weight (halved; default 5)"
    assert "halved" in actions["variant"].choices

    def variant(*flags):
        args = build_parser().parse_args(["build", "i.json", "--variant", *flags, "-o", "q"])
        return _variant_from_args(args)

    assert variant("halved") == HalvedVariant(3, 5)
    assert variant("halved", "--hw", "2") == HalvedVariant(3, 2)
    assert variant("raw", "--lm", "1e4") == pq.RawVariant(10**4, 10**9)
    assert capsys.readouterr().err == ""
    assert variant("halved", "--hw", "7", "--lm", "0.5") == HalvedVariant(Fraction(1, 2), 7)
    assert capsys.readouterr().err == "warning: half weight 7 is off the default grid ['2', '5']\n"
    with pytest.raises(ValueError, match="variant 'raw' does not take --hw"):
        variant("raw", "--hw", "2")


@pytest.mark.parametrize("name", sorted(bench.SOLVERS))
def test_solve_defaults_match_the_sweep_call(tmp_path, name):
    q = pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())
    assert q.n == 14
    path = tmp_path / "q.coo"
    pq.save_qubo(q, path)
    out = tmp_path / "samples.csv"
    assert run("solve", path, "--solver", name, "--seed", 3, "-o", out) == 0
    [(_, params)] = bench.expand_solver_params({"name": name})
    assert params == bench.SOLVERS[name].defaults
    [[expected]] = bench.SOLVERS[name].run([q], params, [3])
    assert pq.load_sampleset(out) == expected


class TestStats:
    def test_csv_columns(self, qubo_file, capsys):
        assert run("stats", qubo_file, "--p", 1, 10) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "qubits,edges,colors,p,two_qubit_interactions,cost_layer_depth"
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        tenth = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert int(tenth["two_qubit_interactions"]) == 10 * int(first["two_qubit_interactions"])

    def test_write_to_file(self, qubo_file, tmp_path):
        out = tmp_path / "stats.csv"
        assert run("stats", qubo_file, "--p", 2, "-o", out) == 0
        assert out.read_text().startswith("qubits,")
