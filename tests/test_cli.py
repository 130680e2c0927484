import json

import pytest

from nchodge import cli
from nchodge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_hh_dual_numbers(capsys):
    code, rep, _ = run_json(capsys, "hh", "--algebra", "dual_numbers",
                            "--field", "Q", "--n-max", "4")
    assert code == 0
    assert rep["format"] == "ncg-report/1"
    assert rep["tool"]["name"] == "nchodge"
    assert rep["result"]["per_n"] == {"0": 2, "1": 1, "2": 1, "3": 1, "4": 1}


def test_hp_clifford1(capsys):
    code, rep, _ = run_json(capsys, "hp", "--algebra", "clifford1",
                            "--field", "Q", "--n-max", "8", "--u-trunc", "3")
    assert code == 0
    assert (rep["result"]["hp_even"], rep["result"]["hp_odd"]) == (0, 1)
    assert rep["result"]["conclusive"]
    assert rep["truncation"] == 3
    assert rep["window"]["n_max"] == 8


def test_validate_broken_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "ncg-algebra/1", "oops": 1}')
    code, out, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert "oops" in err


def test_validate_catalogue_ok(capsys):
    code, rep, _ = run_json(capsys, "validate", "--algebra", "group_z2",
                            "--field", "F3")
    assert code == 0
    assert rep["result"]["ok"]


def test_algebra_json_file_input(tmp_path, capsys):
    from nchodge.algebra import algebra_to_json, builtin
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(algebra_to_json(builtin("dual_numbers"))))
    code, rep, _ = run_json(capsys, "hh", "--algebra", str(path), "--n-max", "3")
    assert code == 0
    assert rep["result"]["per_n"]["0"] == 2


def test_strict_inconclusive_exits_3(capsys):
    code, _, _ = run(capsys, "hp", "--algebra", "truncated_poly", "--param",
                     "m=3", "--field", "Q", "--n-max", "4", "--u-trunc", "2",
                     "--strict")
    assert code == 3


def test_window_precondition_exits_1(capsys):
    code, out, err = run(capsys, "hp", "--algebra", "dual_numbers",
                         "--field", "Q", "--n-max", "3", "--u-trunc", "3")
    assert code == 1


def test_chern_cli(tmp_path, capsys):
    idem = tmp_path / "e11.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "1/1"}}))
    code, rep, _ = run_json(capsys, "chern", "--algebra", "mat", "--param",
                            "m=2", "--u-trunc", "2", "--idempotent", str(idem))
    assert code == 0
    assert rep["result"]["is_cycle"]
    assert rep["result"]["u0_class_nonzero"]


def test_idempotent_schema_rejected(tmp_path, capsys):
    idem = tmp_path / "bad.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E12*1": "1"}}))
    code, _, err = run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                       "--u-trunc", "2", "--idempotent", str(idem))
    assert code == 2
    assert "idempotent" in err


def test_ppower_cli(capsys):
    code, rep, _ = run_json(capsys, "ppower", "--algebra", "dual_numbers",
                            "--field", "F2", "--lift", "eps")
    assert code == 0
    assert rep["result"]["well_defined"] and rep["result"]["additive"]
    assert rep["result"]["lift"][1]["terms"] == [
        {"coeff": "1", "word": ["1", "eps", "eps"]}]


def test_poisson_cli(capsys):
    code, rep, _ = run_json(capsys, "poisson", "jacobi", "--bivector",
                            "nonjacobi4", "--degree", "2")
    assert code == 0
    assert rep["result"]["pass"] is False
    code2, rep2, _ = run_json(capsys, "poisson", "homology", "--bivector",
                              "standard", "--degree", "5")
    assert code2 == 0
    assert (rep2["result"]["even"], rep2["result"]["odd"]) == (1, 0)


def test_bivector_json_file(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({
        "format": "ncg-bivector/1", "nvars": 2,
        "components": [{"i": 0, "j": 1,
                        "poly": [{"exponents": [0, 0], "coeff": "1"}]}]}))
    code, rep, _ = run_json(capsys, "poisson", "jacobi", "--bivector",
                            str(path), "--degree", "2")
    assert code == 0
    assert rep["result"]["pass"]


def test_glue_cli(capsys):
    code, rep, _ = run_json(capsys, "glue", "--algebra-a", "point",
                            "--algebra-b", "point", "--bimodule", "trivial")
    assert code == 0
    assert rep["result"]["validation"]["ok"]
    assert rep["result"]["algebra"]["dim"] == 3


def test_catalogue_cli(capsys):
    code, rep, _ = run_json(capsys, "catalogue")
    assert code == 0
    assert "dual_numbers" in rep["result"]["algebras"]
    assert "nonjacobi4" in rep["result"]["bivectors"]


def test_formats(capsys):
    code, out, _ = run(capsys, "hh", "--algebra", "point", "--n-max", "2",
                       "--format", "csv")
    assert code == 0 and out.startswith("key,value")
    code2, out2, _ = run(capsys, "hh", "--algebra", "point", "--n-max", "2",
                         "--format", "markdown")
    assert code2 == 0 and "| key | value |" in out2


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("hh", "--algebra", "dual_numbers", "--n-max", "3",
            "--cache-dir", str(cache))
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    files = list(cache.glob("*.report"))
    assert len(files) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("hh", "--algebra", "dual_numbers", "--n-max", "3",
            "--cache-dir", str(cache))
    _, out1, _ = run(capsys, *args)
    entry = next(cache.glob("*.report"))
    entry.write_text("garbage")
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert "corrupted" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NCHODGE_CACHE_DIR", str(cache))
    code, _, _ = run(capsys, "hh", "--algebra", "point", "--n-max", "2")
    assert code == 0
    assert list(cache.glob("*.report"))


def test_cache_unwritable_warns(tmp_path, capsys):
    code, _, err = run(capsys, "hh", "--algebra", "point", "--n-max", "2",
                       "--cache-dir", "/proc/does-not-exist")
    assert code == 0
    assert "unwritable" in err


# Exit codes 0, 1, 2 (schema) and 3 (--strict) have their own tests above.
@pytest.mark.parametrize("argv, code", [
    (("hh", "--algebra", "no_such_algebra", "--n-max", "2"), 2),
    # UnsupportedError is a ValueError; it must not fall through to exit 1
    (("ppower", "--algebra", "clifford1", "--field", "Q"), 3),
])
def test_exit_codes(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_contract_error_exits_2(tmp_path, capsys, monkeypatch):
    from nchodge.kchern import ContractError

    def failing(pi, N):
        raise ContractError("cycle certificate failed")

    monkeypatch.setattr(cli, "chern_idempotent", failing)
    idem = tmp_path / "e11.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "1/1"}}))
    code, _, err = run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                       "--u-trunc", "2", "--idempotent", str(idem))
    assert code == 2
    assert "certificate" in err


def test_ppower_clifford1_f3_ranks_agree(capsys):
    code, rep, _ = run_json(capsys, "ppower", "--algebra", "clifford1", "--field", "F3")
    assert code == 0
    assert rep["result"]["hh0_rank"] == rep["result"]["hh0_rank_direct"] == 1


def test_cache_key_is_pinned(tmp_path, capsys):
    # The key hashes the algebra's structure constants and the idempotent as
    # "num/den" strings ("1/1" for integral Q scalars); a change of spelling
    # or of the hashed fields would orphan every cached report.  The tool
    # version is hashed too, so a version bump changes this value.
    idem = tmp_path / "pi.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "1/1", "E12*1": "2/3"}}))
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                     "--u-trunc", "2", "--idempotent", str(idem),
                     "--cache-dir", str(cache))
    assert code == 0
    assert [p.name for p in cache.glob("*.report")] == [
        "f68bebd4fb5f87207e5865a40a1894281919074ea30b48f8ce2f99715a2ea24a.report"]
