import json

import pytest

from qci_hochschild import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_json(capsys):
    code, out = run(capsys, "dims", "--a", "3", "--max-degree", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qci-hochschild/1"
    assert [row["ext"] for row in payload["rows"]] == [2 * n + 2 for n in range(7)]
    assert [row["tor"] for row in payload["rows"]] == [2 * n + 2 for n in range(7)]


def test_dims_csv(capsys):
    code, out = run(capsys, "dims", "--a", "2", "--max-degree", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,ext,tor", "0,2,2", "1,4,4", "2,6,6", "3,8,8"]


def test_dims_deterministic(capsys):
    _, first = run(capsys, "dims", "--a", "2", "--max-degree", "5")
    _, second = run(capsys, "dims", "--a", "2", "--max-degree", "5")
    assert first == second


def test_dims_backend_agreement(capsys):
    _, cyc = run(capsys, "dims", "--a", "2", "--max-degree", "4")
    _, prime = run(
        capsys, "dims", "--a", "2", "--backend", "prime:5", "--max-degree", "4"
    )
    rows_c = json.loads(cyc)["rows"]
    rows_p = json.loads(prime)["rows"]
    assert rows_c == rows_p


def test_basis_output(capsys):
    code, out = run(capsys, "basis", "--a", "3", "--degree", "2")
    assert code == 0
    payload = json.loads(out)
    labels = [cls["label"] for cls in payload["classes"]]
    assert labels == ["zeta_0", "zeta_1", "zeta_2", "eta+_0", "eta+_2", "eta-_1"]
    assert payload["classes"][0]["values"] == ["1 * y^0 x^0", "0", "0"]


def test_product_command(capsys):
    code, out = run(
        capsys,
        "product", "--a", "2", "--deg1", "2", "--i", "1", "--deg2", "2", "--j", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == "xi_2"
    assert payload["coordinates"] == {"xi_2": "1"}


def test_verify_relations(capsys):
    code, out = run(capsys, "verify", "--a", "4", "--suite", "relations")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    names = [c["name"] for c in payload["checks"]]
    assert names == [f"({letter})" for letter in "abcdefghijklm"]


def test_verify_liftings(capsys):
    code, out = run(
        capsys,
        "verify", "--a", "3", "--suite", "liftings", "--t-max", "1", "--s-max", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert len(payload["checks"]) == 1 + 3  # t = 0 and t = 1 with r = 0..2


def test_verify_table(capsys):
    code, out = run(
        capsys, "verify", "--a", "2", "--suite", "table", "--max-degree", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"


def test_verify_failure_exit_code(capsys, monkeypatch):
    import qci_hochschild.yoneda as yo

    class FailingReport:
        checks = [("a", False, "forced failure")]
        ok = False

    monkeypatch.setattr(cli, "relations_check", lambda A: FailingReport())
    code, out = run(capsys, "verify", "--a", "3", "--suite", "relations")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "--a", "2", "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "bar"
    assert [row["bar"] for row in payload["rows"]] == [2, 4, 6, 8]


def test_oracle_cap_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SIZE_CAP, "10")
    code = cli.main(["oracle", "--a", "3", "--max-degree", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "exceeds" in captured.err


def test_oracle_composite_modulus_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--a", "2", "--max-degree", "3", "--modulus", "9"])
    assert exc.value.code == 2
    assert "modulus 9 is not prime" in capsys.readouterr().err


def test_oracle_inexact_modulus_is_usage_error(capsys):
    # (p-1)^2 alone exceeds 2^53, so not even one column reduces exactly
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--a", "2", "--max-degree", "1", "--modulus", "2147483647"])
    assert exc.value.code == 2
    assert "2147483647" in capsys.readouterr().err


def test_oracle_block_too_wide_for_modulus(capsys):
    # degree-0 blocks are one column wide and reduce exactly at this modulus;
    # degree-1 blocks are wider and must be refused, not reduced inexactly
    code, out = run(capsys, "oracle", "--a", "2", "--max-degree", "0", "--modulus", "90000049")
    assert code == 0
    assert [row["bar"] for row in json.loads(out)["rows"]] == [2]
    code = cli.main(["oracle", "--a", "2", "--max-degree", "1", "--modulus", "90000049"])
    assert code == 1
    assert "inexact" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims"])  # missing --a
    assert exc.value.code == 2


def test_unknown_backend_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--a", "2", "--backend", "galois"])
    assert exc.value.code == 2


def test_invalid_prime_backend_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--a", "3", "--backend", "prime:5"])  # 3 does not divide 4
    assert exc.value.code == 2


def test_prime_backend_order_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--a", "1", "--backend", "prime"])
    assert exc.value.code == 2
    assert "a must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "index, message",
    [
        (["--i", "-1", "--j", "0"], "--i must be in 0..5 for --deg1 2, got -1"),
        (["--i", "0", "--j", "6"], "--j must be in 0..5 for --deg2 2, got 6"),
        (["--i", "99", "--j", "0"], "--i must be in 0..5 for --deg1 2, got 99"),
    ],
)
def test_product_index_out_of_range_is_usage_error(capsys, index, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["product", "--a", "3", "--deg1", "2", "--deg2", "2", *index])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--a", "3", "--max-degree", "-1"],
        ["basis", "--a", "3", "--degree", "-2"],
        ["product", "--a", "3", "--deg1", "-2", "--i", "0", "--deg2", "2", "--j", "0"],
        ["product", "--a", "3", "--deg1", "2", "--i", "0", "--deg2", "-2", "--j", "0"],
        ["table", "--a", "3", "--max-degree", "-1"],
        ["verify", "--a", "3", "--suite", "table", "--max-degree", "-1"],
        ["verify", "--a", "3", "--suite", "liftings", "--t-max", "-1"],
        ["verify", "--a", "3", "--suite", "liftings", "--s-max", "-1"],
        ["oracle", "--a", "3", "--max-degree", "-1"],
        ["dump-resolution", "--a", "3", "--max-degree", "-1"],
    ],
)
def test_negative_degree_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected an integer >= 0, got -" in err


def test_dump_resolution(capsys):
    code, out = run(capsys, "dump-resolution", "--a", "2", "--max-degree", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d1 f1_0 = ")
    assert len(lines) == 2 + 3 + 4
    _, second = run(capsys, "dump-resolution", "--a", "2", "--max-degree", "3")
    assert out == second


def test_dump_resolution_round_trips(capsys):
    from qci_hochschild.algebra import QuantumCompleteIntersection, env_from_text
    from qci_hochschild.scalars import cyclotomic_field

    code, out = run(capsys, "dump-resolution", "--a", "3", "--max-degree", "2")
    assert code == 0
    A = QuantumCompleteIntersection(3, cyclotomic_field(3))
    for line in out.splitlines():
        _, rhs = line.split(" = ", 1)
        if rhs == "0":
            continue
        for piece in rhs.split(" + ("):
            piece = piece.strip()
            if piece.startswith("("):
                piece = piece[1:]
            body = piece.rsplit(") f", 1)[0]
            env_from_text(A, body)  # parses without error


def test_backend_env_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BACKEND, "prime")
    code, out = run(capsys, "dims", "--a", "3", "--max-degree", "2")
    assert code == 0
    assert json.loads(out)["backend"] == "prime(7)"
