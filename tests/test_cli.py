"""End-to-end runs of the homord command line via subprocess."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homord
from homord.builders import chain_dumps, chain_loads

# The child process runs the same homord these tests import.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(homord.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "homord", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=ENV,
        timeout=300,
    )


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "chain.json"
    r = run("build", "--class", "graph", "--sat", "2", "--cap", "64",
            "--seed", "7", "--out", str(path))
    assert r.returncode == 0, r.stderr
    return path


@pytest.fixture(scope="module")
def tiny_path_chain(tmp_path_factory):
    """Hand-built one-level chain: the path graph 0-1-2."""
    from homord.builders import StructureChain
    from homord.structures import Signature, make_structure

    S = make_structure(
        Signature((("E", 2),)), 3, {"E": {(0, 1), (1, 0), (1, 2), (2, 1)}}
    )
    path = tmp_path_factory.mktemp("cli2") / "path.json"
    path.write_text(chain_dumps(StructureChain("graph", (S,), (0,))))
    return path


class TestBuild:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            r = run("build", "--class", "graph", "--sat", "1", "--cap", "24",
                    "--seed", "5", "--out", str(p))
            assert r.returncode == 0, r.stderr
            assert "level(s)" in r.stderr  # summary line goes to stderr
        assert a.read_text() == b.read_text()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("build", "--class", "graph", "--sat", "1", "--cap", "24",
            "--seed", "5", "--out", str(a))
        run("build", "--class", "graph", "--sat", "1", "--cap", "24",
            "--seed", "6", "--out", str(b))
        assert a.read_text() != b.read_text()

    def test_other_families(self, tmp_path):
        cases = [
            ("two_predicate_PQ", ["--size-p", "2", "--size-q", "3"]),
            ("bipartite_deg2", ["--m", "4"]),
            ("involution_order", ["--pairs", "2,3"]),
            ("f2_vector_space:3", []),
            ("kn_free_graph:3", ["--sat", "1", "--cap", "32"]),
        ]
        for name, extra in cases:
            out = tmp_path / f"{name.replace(':', '_')}.json"
            r = run("build", "--class", name, *extra, "--seed", "1",
                    "--out", str(out))
            assert r.returncode == 0, (name, r.stderr)
            text = out.read_text()
            assert chain_dumps(chain_loads(text)) + "\n" == text  # loads back, class-checked

    def test_unknown_class_exits_2(self):
        r = run("build", "--class", "frobnicator", "--seed", "1")
        assert r.returncode == 2
        assert "error:" in r.stderr


class TestOrbits:
    def test_shape(self, chain_file):
        r = run("orbits", "--in", str(chain_file), "--level", "2", "--k", "2",
                "--fix", "0,3", "--seed", "0")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["k"] == 2 and doc["fix"] == [0, 3]
        tuples = [tuple(t) for block in doc["blocks"] for t in block]
        m = doc["level_size"]
        assert len(tuples) == m * (m - 1)
        assert len(set(tuples)) == len(tuples)

    def test_chain_missing_keys_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"class": "graph", "saturation": [0]}))
        r = run("orbits", "--in", str(bad), "--k", "2")
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("cls", ["graph", "frobnicator"])
    def test_chain_outside_class_exits_2(self, tmp_path, cls):
        # a lone arc (0, 1) is not a graph's symmetric edge relation
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "class": cls,
            "levels": [{"sig": [["E", 2]], "size": 2, "rel": {"E": [[0, 1]]}}],
            "saturation": [0],
        }))
        r = run("orbits", "--in", str(bad), "--k", "2")
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("content", [b"level 0: 0-1 1-2\n", b"\xff\xfe\x00"])
    def test_chain_not_json_exits_2(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        r = run("orbits", "--in", str(bad), "--k", "2")
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr


class TestAcl:
    def test_shape(self, chain_file):
        r = run("acl", "--in", str(chain_file), "--fix", "0", "--b", "1")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdict"] in ("growing", "algebraic-over-A", "undecided")
        assert isinstance(doc["orbit_sizes"], list)


class TestTauPath:
    def test_found(self, chain_file):
        r = run("tau-path", "--in", str(chain_file), "--level", "2",
                "--a", "0", "--b", "5", "--tau", "edge", "--avoid", "1,2")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["found"] and doc["length"] == len(doc["nodes"]) - 1
        assert doc["nodes"][0] == 0 and doc["nodes"][-1] == 5
        assert not {1, 2} & set(doc["nodes"][1:-1])

    def test_no_path_exits_1(self, tiny_path_chain):
        r = run("tau-path", "--in", str(tiny_path_chain), "--a", "0",
                "--b", "2", "--tau", "edge", "--avoid", "1")
        assert r.returncode == 1
        assert json.loads(r.stdout)["found"] is False

    def test_unrealized_tau_exits_2(self, tiny_path_chain):
        # the path graph has non-edges, but asking for a type the structure
        # lacks is an input error; build an edgeless chain inline
        r = run("tau-path", "--in", str(tiny_path_chain), "--a", "0",
                "--b", "2", "--tau", "bogus")
        assert r.returncode == 2


class TestSample:
    def test_csv_shape_and_determinism(self, chain_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            r = run("sample", "--sampler", "uniform", "--in", str(chain_file),
                    "--level", "0", "--n", "20", "--seed", "3", "--out", str(p))
            assert r.returncode == 0, r.stderr
        assert a.read_text() == b.read_text()
        rows = list(csv.reader(a.open()))
        assert rows[0][0] == "sampleIndex"
        assert len(rows) == 21

    def test_points_subset(self, chain_file):
        r = run("sample", "--sampler", "uniform", "--in", str(chain_file),
                "--level", "0", "--n", "5", "--points", "0,1", "--seed", "3")
        rows = list(csv.reader(r.stdout.splitlines()))
        assert rows[0] == ["sampleIndex", "pos0", "pos1", "eta_0", "eta_1"]
        for row in rows[1:]:
            assert {row[1], row[2]} == {"0", "1"}

    def test_dual_is_eta_only(self, tmp_path):
        chain = tmp_path / "f2.json"
        run("build", "--class", "f2_vector_space:2", "--seed", "1",
            "--out", str(chain))
        r = run("sample", "--sampler", "dual", "--in", str(chain),
                "--n", "8", "--seed", "2")
        rows = list(csv.reader(r.stdout.splitlines()))
        assert rows[0] == ["sampleIndex", "eta_0", "eta_1", "eta_2", "eta_3"]
        for row in rows[1:]:
            assert row[1] == "0"  # xi(0) = 0 always
            assert set(row[2:]) <= {"0", "1"}

    def test_atoms_flag(self, chain_file):
        r = run("sample", "--sampler", "atoms", "--in", str(chain_file),
                "--level", "0", "--n", "6", "--atoms", "0.5:0.5", "--seed", "4")
        assert r.returncode == 0, r.stderr


class TestEstimate:
    def test_uniform_triple(self, chain_file):
        # P(three named points in one fixed relative order) = 1/6
        r = run("estimate", "--sampler", "uniform", "--in", str(chain_file),
                "--points", "0,1,2", "--n", "30000", "--seed", "9")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert abs(doc["value"] - 1 / 6) < 6 * doc["stderr"]
        assert doc["ci99"][0] < 1 / 6 < doc["ci99"][1]


class TestTestSuites:
    def test_monotone_passes(self, chain_file):
        r = run("test", "--suite", "monotone", "--sampler", "uniform",
                "--in", str(chain_file), "--level", "0", "--n", "2000",
                "--seed", "1")
        assert r.returncode == 0, r.stderr
        assert "PASS" in r.stderr

    def test_mixture_ergodicity_fails(self):
        r = run("test", "--suite", "ergodicity", "--source", "mixture",
                "--length", "256", "--block", "64", "--n", "400", "--seed", "2")
        assert r.returncode == 1
        assert "FAIL" in r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdicts"][0]["pass"] is False

    def test_iid_ergodicity_passes(self):
        r = run("test", "--suite", "ergodicity", "--source", "iid_uniform",
                "--length", "256", "--block", "32", "--n", "400", "--seed", "2")
        assert r.returncode == 0, r.stderr

    def test_exchangeability_pairs_flag(self, chain_file):
        # any two adjacent pairs carry the same 2-type, so compare two edges
        from homord.builders import chain_loads

        top = chain_loads(chain_file.read_text()).top
        edges = sorted(top.table("E"))
        e1 = edges[0]
        e2 = next(e for e in edges if not set(e) & set(e1))
        pair_arg = f"{e1[0]},{e1[1]};{e2[0]},{e2[1]}"
        r = run("test", "--suite", "exchangeability", "--sampler", "uniform",
                "--in", str(chain_file), "--n", "3000", "--seed", "3",
                "--pairs", pair_arg)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdicts"][0]["name"] == "exchangeability"

    def test_independence_tuples_flag(self, chain_file):
        r = run("test", "--suite", "independence", "--sampler", "uniform",
                "--in", str(chain_file), "--level", "0", "--n", "3000",
                "--seed", "3", "--tuples", "0,1")
        assert r.returncode == 0, r.stderr


class TestCro:
    def test_report_matches_library(self, tmp_path):
        out = tmp_path / "cro.json"
        r = run("cro", "--class", "graph", "--n", "3", "--report", str(out))
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        from homord.cro import build_cro_system, uniqueness_report

        rep = uniqueness_report(build_cro_system("graph", 3))
        assert doc["class"] == "graph" and doc["maxLevel"] == 3
        assert doc["nullspaceDim"] == rep.nullspace_dim == 2
        assert doc["uniformFeasible"] is True
        assert len(doc["variables"]) == 11
        assert doc["diracSolutions"] == []

    def test_linear_order_diracs_serialized(self):
        r = run("cro", "--class", "linear_order", "--n", "3")
        doc = json.loads(r.stdout)
        assert len(doc["diracSolutions"]) == 2


class TestConfig:
    def test_config_supplies_defaults(self, chain_file, tmp_path):
        cfg = tmp_path / "homord.cfg"
        cfg.write_text("# sampling defaults\nseed = 3\nn = 5\npoints = 0,1\n")
        direct = run("sample", "--sampler", "uniform", "--in", str(chain_file),
                     "--level", "0", "--n", "5", "--points", "0,1", "--seed", "3")
        via_cfg = run("--config", str(cfg), "sample", "--sampler", "uniform",
                      "--in", str(chain_file), "--level", "0")
        assert via_cfg.returncode == 0, via_cfg.stderr
        assert via_cfg.stdout == direct.stdout

    def test_explicit_flag_wins(self, chain_file, tmp_path):
        cfg = tmp_path / "homord.cfg"
        cfg.write_text("seed = 3\nn = 5\n")
        base = run("--config", str(cfg), "sample", "--sampler", "uniform",
                   "--in", str(chain_file), "--level", "0", "--points", "0,1")
        other = run("--config", str(cfg), "sample", "--sampler", "uniform",
                    "--in", str(chain_file), "--level", "0", "--points", "0,1",
                    "--seed", "4")
        assert base.stdout != other.stdout

    def test_missing_files_exit_2(self):
        assert run("orbits", "--in", "/nonexistent.json", "--k", "2").returncode == 2
        r = run("--config", "/nonexistent.cfg", "cro", "--class", "graph", "--n", "2")
        assert r.returncode == 2

    def test_config_without_value_exits_2(self):
        r = run("cro", "--class", "graph", "--n", "2", "--config")
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr
