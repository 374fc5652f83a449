"""End-to-end runs of the homord command line via subprocess."""

import argparse
import csv
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import ENV
from homord.builders import CLASSES, chain_dumps, chain_loads, class_by_name


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
                "--fix", "0,3")
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
        with a.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sampleIndex"
        assert len(rows) == 21

    def test_points_subset(self, chain_file):
        r = run("sample", "--sampler", "uniform", "--in", str(chain_file),
                "--level", "0", "--n", "5", "--points", "0,1", "--seed", "3")
        rows = list(csv.reader(r.stdout.splitlines()))
        assert rows[0] == ["sampleIndex", "pos0", "pos1", "eta_0", "eta_1"]
        for row in rows[1:]:
            assert {row[1], row[2]} == {"0", "1"}

    def test_blank_points_mean_every_point(self, chain_file):
        argv = ("sample", "--sampler", "uniform", "--in", str(chain_file),
                "--level", "0", "--n", "3", "--seed", "3")
        every = run(*argv)
        assert every.returncode == 0, every.stderr
        assert "eta_0" in every.stdout.splitlines()[0]
        assert run(*argv, "--points", " ").stdout == every.stdout

    def test_reader_closing_early_exits_0(self, chain_file):
        # like `homord sample ... | head -1`: megabytes of CSV, one line read
        p = subprocess.Popen(
            [sys.executable, "-m", "homord", "sample", "--sampler", "uniform",
             "--in", str(chain_file), "--n", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
        assert p.stdout.readline().startswith(b"sampleIndex,")
        p.stdout.close()
        assert p.wait(timeout=300) == 0
        assert p.stderr.read() == b""
        p.stderr.close()

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


@pytest.fixture(scope="module")
def f2_chain(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli3") / "f2.json"
    r = run("build", "--class", "f2_vector_space:3", "--out", str(path))
    assert r.returncode == 0, r.stderr
    return path


@pytest.fixture(scope="module")
def tampered_chain(chain_file, tmp_path_factory):
    """chain_file with its top level claiming one more depth than it has."""
    obj = json.loads(chain_file.read_text())
    obj["saturation"][-1] += 1
    path = tmp_path_factory.mktemp("cli4") / "tampered.json"
    path.write_text(json.dumps(obj))
    return path


def _two_point_chain(size=2, edges=((0, 1), (1, 0)), saturation=(0,), sorts=None):
    """A one-level graph chain on two points; at the defaults it loads."""
    level = {"sig": [["E", 2]], "size": size, "sorts": sorts, "rel": {"E": edges}}
    return {"class": "graph", "levels": [level], "saturation": saturation}


# Chains with one malformed value.  The first four hold a value that is not a
# JSON integer, and int() would truncate each to a chain that loads; the rest
# hold sort labels that once crashed a subcommand, were split or were dropped.
LOOSE_CHAINS = {
    "float_point": _two_point_chain(edges=[[0, 1.5], [1.5, 0]]),
    "bool_point": _two_point_chain(edges=[[0, True], [True, 0]]),
    "float_size": _two_point_chain(size=2.7),
    "float_saturation": _two_point_chain(saturation=[0.0]),
    # sort labels are a list of ASCII identifiers, or null
    "int_sorts": _two_point_chain(sorts=[1, 2]),
    "non_ascii_sorts": _two_point_chain(sorts=["\u00e9", "a"]),
    "string_sorts": _two_point_chain(sorts="xx"),
    "empty_sorts": _two_point_chain(sorts=[]),
}


@pytest.fixture(scope="module")
def loose_chains(tmp_path_factory):
    out = {}
    for name, obj in LOOSE_CHAINS.items():
        out[name] = tmp_path_factory.mktemp("cli5") / f"{name}.json"
        out[name].write_text(json.dumps(obj))
    return out


@pytest.fixture(scope="module")
def binary_config(tmp_path_factory):
    """A config file that is not UTF-8 text."""
    path = tmp_path_factory.mktemp("cli6") / "bin.cfg"
    path.write_bytes(b"\xff\xfe")
    return path


# Flags that only other modes of the command read (another build class, another
# sampler), each with the error it gets; ignoring them would exit 0.
STRAY_FLAGS = {
    "graph": (("build", "--class", "graph", "--sat", "1", "--cap", "12", "--size-p", "5",
               "--m", "9", "--pairs", "4,4"), "--class graph takes no --m"),
    "pure_set": (("build", "--class", "pure_set", "--cap", "12", "--pairs", "9,9", "--m", "4"),
                 "--class pure_set takes no --m"),
    "two_predicate_PQ": (("build", "--class", "two_predicate_PQ", "--size-p", "1", "--sat", "2"),
                         "--class two_predicate_PQ takes no --sat"),
    "bipartite_deg2": (("build", "--class", "bipartite_deg2", "--pairs", "3"),
                       "--class bipartite_deg2 takes no --pairs"),
    "involution_order": (("build", "--class", "involution_order", "--cap", "3"),
                         "--class involution_order takes no --cap"),
    "f2_vector_space": (("build", "--class", "f2_vector_space:2", "--m", "3"),
                        "--class f2_vector_space:2 takes no --m"),
    "sample_uniform": (("sample", "--sampler", "uniform", "--in", "{chain}", "--n", "5",
                        "--atoms", "0:0.5"), "--sampler uniform takes no --atoms"),
    "estimate_uniform": (("estimate", "--sampler", "uniform", "--in", "{chain}", "--points", "0,1",
                          "--n", "10", "--atoms", "0:0.5"), "--sampler uniform takes no --atoms"),
    "monotone_uniform": (("test", "--suite", "monotone", "--in", "{chain}", "--n", "10",
                          "--atoms", "0:0.5"),
                         "--suite monotone --sampler uniform takes no --atoms"),
}


# Malformed input on every flag that takes points, and chain files that do not
# hold: each must exit 2 with an error line, never a traceback.  "{chain}",
# "{f2}", "{tampered}" and the LOOSE_CHAINS names stand for chain files.
BAD_INPUT = {
    "points_token": ("sample", "--sampler", "uniform", "--in", "{chain}", "--points", "0,x"),
    "target_token": ("estimate", "--sampler", "uniform", "--in", "{chain}",
                     "--points", "0,1", "--target", "1,x", "--n", "10"),
    # an explicit empty target is no permutation of the points, not a default
    "target_empty": ("estimate", "--sampler", "uniform", "--in", "{chain}",
                     "--points", "0,1", "--target", "", "--n", "10"),
    "fix_token": ("orbits", "--in", "{chain}", "--k", "1", "--fix", "0,x"),
    "avoid_token": ("tau-path", "--in", "{chain}", "--a", "0", "--b", "1",
                    "--tau", "edge", "--avoid", "x"),
    "avoid_out_of_range": ("tau-path", "--in", "{chain}", "--a", "0", "--b", "1",
                           "--tau", "edge", "--avoid", "99"),
    "tuples_token": ("test", "--suite", "independence", "--in", "{chain}",
                     "--n", "10", "--tuples", "0,1;2,3,4"),
    "pairs_token": ("test", "--suite", "exchangeability", "--in", "{chain}",
                    "--n", "10", "--pairs", "0,x;1,2"),
    "atoms_no_mass": ("sample", "--sampler", "atoms", "--in", "{chain}", "--atoms", "0.5"),
    "atoms_nan_mass": ("estimate", "--sampler", "atoms", "--in", "{chain}", "--points", "0,1",
                       "--atoms", "0.5:nan", "--n", "10"),
    "estimate_undrawn_point": ("estimate", "--sampler", "uniform", "--in", "{chain}",
                               "--points", "0,99", "--n", "10"),
    "independence_undrawn_point": ("test", "--suite", "independence", "--in", "{chain}",
                                   "--n", "10", "--tuples", "0,99"),
    "independence_repeated_point": ("test", "--suite", "independence", "--in", "{chain}",
                                    "--n", "10", "--tuples", "1,1"),
    "sample_undrawn_point": ("sample", "--sampler", "uniform", "--in", "{chain}",
                             "--points", "0,99"),
    "sample_repeated_point": ("sample", "--sampler", "uniform", "--in", "{chain}",
                              "--points", "1,1"),
    "dual_estimate": ("estimate", "--sampler", "dual", "--in", "{f2}",
                      "--points", "1,2", "--n", "10"),
    "dual_monotone": ("test", "--suite", "monotone", "--sampler", "dual", "--in", "{f2}",
                      "--n", "10"),
    "dual_exchangeability": ("test", "--suite", "exchangeability", "--sampler", "dual",
                             "--in", "{f2}", "--n", "10", "--pairs", "1,2;3,4"),
    "sample_no_samples": ("sample", "--sampler", "uniform", "--in", "{chain}", "--n", "0"),
    "sample_negative_n": ("sample", "--sampler", "uniform", "--in", "{chain}", "--n", "-5"),
    "monotone_no_samples": ("test", "--suite", "monotone", "--in", "{chain}", "--n", "0"),
    "independence_alpha_above_one": ("test", "--suite", "independence", "--in", "{chain}",
                                     "--n", "10", "--tuples", "0,1", "--alpha", "2"),
    "independence_alpha_negative": ("test", "--suite", "independence", "--in", "{chain}",
                                    "--n", "10", "--tuples", "0,1", "--alpha", "-1"),
    "independence_alpha_nan": ("test", "--suite", "independence", "--in", "{chain}",
                               "--n", "10", "--tuples", "0,1", "--alpha", "nan"),
    "exchangeability_one_point": ("test", "--suite", "exchangeability", "--in", "{chain}",
                                  "--n", "10", "--pairs", "1;2"),
    "exchangeability_no_points": ("test", "--suite", "exchangeability", "--in", "{chain}",
                                  "--n", "10", "--pairs", ";"),
    "exchangeability_no_samples": ("test", "--suite", "exchangeability", "--in", "{chain}",
                                   "--n", "0", "--pairs", "0,1;2,3"),
    # two same-type tuples, so the seed reaches the substream derivation
    "exchangeability_negative_seed": ("test", "--suite", "exchangeability", "--in", "{chain}",
                                      "--n", "10", "--pairs", "0,4;0,3", "--seed", "-1"),
    "ergodicity_no_sequences": ("test", "--suite", "ergodicity", "--n", "0"),
    "ergodicity_negative_n": ("test", "--suite", "ergodicity", "--n", "-3"),
    "ergodicity_negative_length": ("test", "--suite", "ergodicity", "--length", "-3"),
    "build_graph_negative_seed": ("build", "--class", "graph", "--seed", "-1"),
    "build_bipartite_negative_seed": ("build", "--class", "bipartite_deg2", "--seed", "-1"),
    "build_involution_negative_seed": ("build", "--class", "involution_order", "--seed", "-1"),
    "build_kn_free_param": ("build", "--class", "kn_free_graph:x"),
    "build_f2_param": ("build", "--class", "f2_vector_space:x"),
    "cro_kn_free_param": ("cro", "--class", "kn_free_graph:x", "--n", "3"),
    "build_plain_param": ("build", "--class", "graph:5", "--sat", "1", "--cap", "10"),
    # a class parameter is ASCII digits and nothing else
    "build_kn_free_param_underscore": ("build", "--class", "kn_free_graph:4_0"),
    "build_kn_free_param_space": ("build", "--class", "kn_free_graph: 4"),
    "build_kn_free_param_plus": ("build", "--class", "kn_free_graph:+4"),
    "build_kn_free_param_empty": ("build", "--class", "kn_free_graph:"),
    "build_f2_param_underscore": ("build", "--class", "f2_vector_space:0_2"),
    "build_f2_param_empty": ("build", "--class", "f2_vector_space:"),
    "cro_plain_param": ("cro", "--class", "tournament:9", "--n", "2"),
    "cro_past_level_cap": ("cro", "--class", "graph", "--n", "7"),
    "cro_no_enumerator": ("cro", "--class", "involution_order", "--n", "3"),
    "tampered_saturation": ("orbits", "--in", "{tampered}", "--k", "1"),
    "monotone_no_in": ("test", "--suite", "monotone", "--n", "10"),
    "exchangeability_no_in": ("test", "--suite", "exchangeability", "--n", "10",
                              "--pairs", "0,1;2,3"),
    "monotone_alpha": ("test", "--suite", "monotone", "--in", "{chain}", "--n", "10",
                       "--alpha", "0.01"),
    "ergodicity_alpha": ("test", "--suite", "ergodicity", "--n", "200", "--length", "64",
                         "--block", "16", "--alpha", "2"),
    "ergodicity_sampler_flags": ("test", "--suite", "ergodicity", "--n", "50", "--length", "16",
                                 "--block", "4", "--in", "/nonexistent.json", "--sampler",
                                 "atoms", "--pairs", "0,1"),
    "ergodicity_level": ("test", "--suite", "ergodicity", "--n", "50", "--length", "16",
                         "--block", "4", "--level", "0"),
    "monotone_sequence_flags": ("test", "--suite", "monotone", "--in", "{chain}", "--n", "50",
                                "--source", "mixture", "--length", "3", "--block", "2"),
    "monotone_block": ("test", "--suite", "monotone", "--in", "{chain}", "--n", "50",
                       "--block", "2"),
    "monotone_pairs": ("test", "--suite", "monotone", "--in", "{chain}", "--n", "50",
                       "--pairs", "0,1;2,3"),
    "independence_pairs": ("test", "--suite", "independence", "--in", "{chain}", "--n", "50",
                           "--tuples", "0,1", "--pairs", "0,1;2,3"),
    "exchangeability_tuples": ("test", "--suite", "exchangeability", "--in", "{chain}",
                               "--n", "50", "--pairs", "0,1;2,3", "--tuples", "0,1"),
    "config_prefix": ("--conf", "homord.cfg", "cro", "--class", "graph", "--n", "2"),
    "config_not_text": ("--config", "{binary_config}", "cro", "--class", "graph", "--n", "2"),
    "tau_path_int_sorts": ("tau-path", "--in", "{int_sorts}", "--a", "0", "--b", "1",
                           "--tau", "edge"),
    "tau_path_non_ascii_sorts": ("tau-path", "--in", "{non_ascii_sorts}", "--a", "0", "--b",
                                 "1", "--tau", "edge"),
    "estimate_no_points": ("estimate", "--sampler", "uniform", "--in", "{chain}",
                           "--points", "", "--n", "10"),
    "estimate_one_point": ("estimate", "--sampler", "uniform", "--in", "{chain}",
                           "--points", "3", "--n", "10"),
    **{f"chain_{name}": ("orbits", "--in", f"{{{name}}}", "--k", "1") for name in LOOSE_CHAINS},
    **{f"stray_{name}": argv for name, (argv, _) in STRAY_FLAGS.items()},
    "atoms_sampler_no_atoms": ("sample", "--sampler", "atoms", "--in", "{chain}", "--n", "5"),
    "exchangeability_no_pairs": ("test", "--suite", "exchangeability", "--in", "{chain}",
                                 "--n", "10"),
    "independence_no_tuples": ("test", "--suite", "independence", "--in", "{chain}",
                               "--n", "10"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2(case, chain_file, f2_chain, tampered_chain, loose_chains,
                           binary_config):
    argv = [a.format(chain=chain_file, f2=f2_chain, tampered=tampered_chain,
                     binary_config=binary_config, **loose_chains)
            for a in BAD_INPUT[case]]
    r = run(*argv)
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert "error:" in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("case", sorted(STRAY_FLAGS))
def test_stray_flag_names_mode(case, chain_file, capsys):
    # in-process: the flag is refused before the subcommand runs
    from homord.cli import main

    argv, error = STRAY_FLAGS[case]
    assert main([a.format(chain=chain_file) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


# Options each subcommand with modes reads whatever its mode, by dest.
COMMON_FLAGS = {
    "build": {"klass", "seed", "out"},
    "sample": {"sampler", "infile", "level", "n", "points", "seed", "out"},
    "estimate": {"sampler", "infile", "level", "points", "target", "n", "seed", "out"},
    "test": {"suite", "n", "seed", "out"},
}


def test_modes_match_parser():
    """Every dest in _MODES is an option of its subcommand, with no parser
    default; every mode is one its selector accepts; every option that is not
    common belongs to some mode."""
    from homord.cli import _MODES, build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert _MODES.keys() == COMMON_FLAGS.keys()
    for command, selectors in _MODES.items():
        options = {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}
        read = set()
        for selector, rows in selectors.items():
            if options[selector].choices is None:
                for mode in rows:
                    class_by_name(mode)  # raises on a name that is no class
            else:
                assert set(rows) == set(options[selector].choices), (command, selector)
            for mode, row in rows.items():
                assert row.keys() <= options.keys(), (command, mode)
                read |= row.keys()
        assert read.isdisjoint(COMMON_FLAGS[command]), command
        assert read | COMMON_FLAGS[command] == options.keys(), command
        assert all(options[dest].default is argparse.SUPPRESS for dest in read), command


# Each build family's flags at the values they take when left out.
BUILD_DEFAULTS = {
    "pure_set": ("--sat", "1", "--cap", "64"),
    "graph": ("--sat", "1", "--cap", "64"),
    "kn_free_graph:3": ("--sat", "1", "--cap", "64"),
    "tournament": ("--sat", "1", "--cap", "64"),
    "two_predicate_PQ": ("--size-p", "2", "--size-q", "2"),
    "bipartite_deg2": ("--m", "3"),
    "involution_order": ("--pairs", "3"),
}


@pytest.mark.parametrize("klass", sorted(BUILD_DEFAULTS))
def test_build_defaults_match_explicit_flags(klass, tmp_path, capsys):
    from homord.cli import main

    texts = []
    for flags in ((), BUILD_DEFAULTS[klass]):
        out = tmp_path / "chain.json"
        assert main(["build", "--class", klass, *flags, "--seed", "1", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_every_class_builds_or_has_no_builder(name, tmp_path, capsys):
    """Each class in the table builds at default flags into a chain of that
    class that loads back to the same bytes, or says it has no builder."""
    from homord.cli import main

    out = tmp_path / "chain.json"
    code = main(["build", "--class", name, "--seed", "1", "--out", str(out)])
    if code == 2:
        assert "has no builder" in capsys.readouterr().err
        assert class_by_name(name).build is None
        return
    assert code == 0
    text = out.read_text()
    chain = chain_loads(text)
    assert chain_dumps(chain) + "\n" == text
    assert class_by_name(chain.class_name) == class_by_name(name)


def test_build_modes_are_the_classes_with_a_builder():
    from homord.cli import _MODES

    specs = {base: make() for base, make in CLASSES.items()}
    assert _MODES["build"]["klass"] == {b: s.flags for b, s in specs.items() if s.build}
    assert {b for b, s in specs.items() if s.build is None} == {"linear_order"}


# Subcommands that draw nothing random refuse --seed rather than ignore it;
# each argv is otherwise well formed.
UNSEEDED = {
    "orbits": ("--in", "{chain}", "--k", "1"),
    "acl": ("--in", "{chain}", "--b", "1", "--fix", "0"),
    "tau-path": ("--in", "{chain}", "--a", "0", "--b", "1", "--tau", "edge"),
    "cro": ("--class", "graph", "--n", "2"),
}


@pytest.mark.parametrize("command", sorted(UNSEEDED))
def test_seed_refused(command, chain_file):
    r = run(command, *(a.format(chain=chain_file) for a in UNSEEDED[command]), "--seed", "5")
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert "error: unrecognized arguments: --seed 5" in r.stderr
    assert r.stdout == ""


class TestCro:
    def test_report_matches_library(self, tmp_path):
        out = tmp_path / "cro.json"
        r = run("cro", "--class", "graph", "--n", "3", "--out", str(out))
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

    def test_equals_spelling(self, chain_file, tmp_path):
        cfg = tmp_path / "homord.cfg"
        cfg.write_text("seed = 3\nn = 5\npoints = 0,1\n")
        argv = ("sample", "--sampler", "uniform", "--in", str(chain_file), "--level", "0")
        spaced = run("--config", str(cfg), *argv)
        joined = run(f"--config={cfg}", *argv)
        assert spaced.returncode == joined.returncode == 0, joined.stderr
        assert joined.stdout == spaced.stdout
        assert joined.stdout.count("\n") == 6  # the file's n = 5, not the default 100

    def test_missing_files_exit_2(self):
        assert run("orbits", "--in", "/nonexistent.json", "--k", "2").returncode == 2
        r = run("--config", "/nonexistent.cfg", "cro", "--class", "graph", "--n", "2")
        assert r.returncode == 2

    # each line form the reader accepts: two_predicate_PQ with 3 P and 2 Q points
    LINE_FORMS = {
        "key_space_value": b"size_p 3\nsize_q 2\n",
        "comment_after_value": b"size-p = 3  # the P points\nsize-q 2 # and Q\n",
        "underscore_key": b"size_p = 3\nsize_q = 2\n",
        "crlf": b"size_p = 3\r\nsize_q = 2\r\n",
    }

    @pytest.mark.parametrize("form", sorted(LINE_FORMS))
    @pytest.mark.parametrize("at", [0, 1], ids=["before_subcommand", "after_subcommand"])
    def test_line_forms(self, form, at, tmp_path, capsys):
        from homord.cli import main

        cfg = tmp_path / "homord.cfg"
        cfg.write_bytes(self.LINE_FORMS[form])
        argv = ["build", "--class", "two_predicate_PQ"]
        assert main([*argv, "--size-p", "3", "--size-q", "2"]) == 0
        direct = capsys.readouterr()
        assert "top size 5" in direct.err  # the defaults give 4
        assert main([*argv[:at], "--config", str(cfg), *argv[at:]]) == 0
        assert capsys.readouterr() == direct

    @pytest.mark.parametrize("line", ["points =", "points=", "points = # every point"])
    def test_empty_value_after_equals(self, line, chain_file, tmp_path):
        # an empty value is passed as "", as --points "" passes it: every point
        cfg = tmp_path / "homord.cfg"
        cfg.write_text(f"n = 5\n{line}\n")
        argv = ("sample", "--sampler", "uniform", "--in", str(chain_file), "--level", "0")
        direct = run(*argv, "--n", "5", "--points", "")
        via_cfg = run("--config", str(cfg), *argv)
        assert direct.returncode == via_cfg.returncode == 0, via_cfg.stderr
        assert via_cfg.stdout == direct.stdout

    def test_key_with_empty_value_names_its_flag(self, tmp_path, capsys):
        from homord.cli import _apply_config, main

        cfg = tmp_path / "homord.cfg"
        cfg.write_text("seed=\nn = 5\n")
        assert _apply_config(["--config", str(cfg), "sample"]) == [
            "sample", "--seed", "", "--n", "5"]
        with pytest.raises(SystemExit) as done:
            main(["--config", str(cfg), "build", "--class", "graph"])
        assert done.value.code == 2
        assert "argument --seed: invalid int value: ''" in capsys.readouterr().err

    def test_config_without_value_exits_2(self):
        r = run("cro", "--class", "graph", "--n", "2", "--config")
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr


# Runs `python -m homord ARGS` inside this child through runpy, then reports
# the exit code and whether scipy.stats and numpy were imported along the way.
STARTUP_PROBE = """
import runpy, sys
try:
    runpy.run_module("homord", run_name="__main__", alter_sys=True)
except SystemExit as done:
    print(done.code, "scipy.stats" in sys.modules, "numpy" in sys.modules)
"""


class TestStartup:
    """scipy.stats costs about 1.3 s to import and no command needs it: the
    p-value suites (exchangeability, independence) call scipy.special.
    numpy is loaded only by the layers that draw random numbers with it, so
    the exact commands (cro, orbits, acl, tau-path) and the witness builds
    skip it."""

    def probe(self, *argv, tmp_path):
        r = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, *argv, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=ENV, timeout=300,
        )
        return r.stdout.splitlines()[-1].split()

    def test_import_skips_scipy_stats(self):
        r = subprocess.run(
            [sys.executable, "-c", "import sys, homord; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env=ENV, timeout=300,
        )
        assert r.stdout.strip() == "False", r.stderr

    def test_import_loads_no_layer(self):
        """`import homord` loads no submodule and no numpy; a name loads
        only its own module and what that module imports."""
        code = ("import sys, homord\n"
                "def loaded(): return sorted(m for m in sys.modules"
                " if m.startswith(('homord.', 'numpy', 'scipy')))\n"
                "print(loaded())\n"
                "homord.find_tau_path\n"
                "print(loaded())\n")
        r = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, env=ENV, timeout=300)
        assert r.stdout.splitlines() == [
            "[]",
            "['homord.errors', 'homord.structures', 'homord.taupaths']",
        ], r.stderr

    def test_monotone_and_cro_skip_scipy_stats(self, chain_file, tmp_path):
        assert self.probe("test", "--suite", "monotone", "--sampler", "uniform",
                          "--in", str(chain_file), "--n", "200", "--seed", "1",
                          tmp_path=tmp_path) == ["0", "False", "True"]
        assert self.probe("cro", "--class", "graph", "--n", "2",
                          tmp_path=tmp_path) == ["0", "False", "False"]

    def test_exact_commands_skip_numpy(self, chain_file, tmp_path):
        for argv in (("tau-path", "--in", str(chain_file), "--a", "0", "--b", "1",
                      "--tau", "edge"),
                     ("orbits", "--in", str(chain_file), "--k", "2"),
                     ("acl", "--in", str(chain_file), "--fix", "0", "--b", "1")):
            assert self.probe(*argv, tmp_path=tmp_path) == ["0", "False", "False"], argv

    def test_witness_builds_skip_numpy(self, tmp_path):
        """Witness completion draws its coins in pure Python; the bipartite
        builder's seeded shuffle still needs numpy."""
        for klass in ("pure_set", "graph", "tournament", "kn_free_graph:4"):
            assert self.probe("build", "--class", klass, "--cap", "40",
                              tmp_path=tmp_path) == ["0", "False", "False"], klass
        assert self.probe("build", "--class", "bipartite_deg2",
                          tmp_path=tmp_path) == ["0", "False", "True"]

    def test_sample_loads_numpy(self, chain_file, tmp_path):
        assert self.probe("sample", "--sampler", "uniform", "--in", str(chain_file),
                          "--n", "5", "--seed", "1",
                          tmp_path=tmp_path) == ["0", "False", "True"]

    def test_independence_skips_scipy_stats(self, chain_file, tmp_path):
        assert self.probe("test", "--suite", "independence", "--sampler", "uniform",
                          "--in", str(chain_file), "--level", "0", "--n", "200",
                          "--seed", "3", "--tuples", "0,1",
                          tmp_path=tmp_path) == ["0", "False", "True"]

    def test_exchangeability_skips_scipy_stats(self, chain_file, tmp_path):
        assert self.probe("test", "--suite", "exchangeability", "--sampler", "uniform",
                          "--in", str(chain_file), "--level", "0", "--n", "200",
                          "--seed", "3", "--pairs", "0,1;1,0",
                          tmp_path=tmp_path) == ["0", "False", "True"]


def test_readme_command_line_block(tmp_path):
    """The fenced block under "## Command line" of the README, run in order
    in one empty directory; the line whose comment says "exit code 1" must
    exit 1, and every other line 0."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    for line in block.replace("\\\n", " ").strip().splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "homord", line
        r = run(*argv[1:], cwd=tmp_path)
        assert r.returncode == (1 if "exit code 1" in line else 0), (line, r.stderr)
