import hashlib
import json
from pathlib import Path

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


def non_cocycle_basis(monkeypatch, only_degree=None):
    """Make the first named class of every degree (or of only_degree) x on
    generator 0, which is not a cocycle in degree 2, so standard_basis raises
    BasisError."""
    import qci_hochschild.cohomology as coh

    original = coh._standard_values

    def broken(algebra, degree):
        vals = original(algebra, degree)
        if only_degree is not None and degree != only_degree:
            return vals
        label, index, _ = vals[0]
        return [(label, index, algebra.x())] + vals[1:]

    monkeypatch.setattr(coh, "_standard_values", broken)


def test_basis_check_failure_exit_code(capsys, monkeypatch):
    non_cocycle_basis(monkeypatch)
    code, out = run(capsys, "basis", "--a", "2", "--degree", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["checks"] == [
        {"name": "named basis", "status": "fail",
         "witness": "xi_0 in degree 2 is not a cocycle"}
    ]


def test_product_basis_failure_exit_code(capsys, monkeypatch):
    non_cocycle_basis(monkeypatch)
    code, out = run(
        capsys,
        "product", "--a", "2", "--deg1", "2", "--i", "1", "--deg2", "0", "--j", "0",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["checks"][0]["name"] == "named basis"
    assert "is not a cocycle" in payload["checks"][0]["witness"]


def test_product_not_cocycle_exit_code(capsys, monkeypatch):
    # add x on generator 0 to the product cochain before it is expressed, so
    # the product itself fails the cocycle check in express
    import qci_hochschild.yoneda as yo
    from qci_hochschild.cohomology import Cochain

    original = yo.express

    def perturbed(A, cochain):
        values = [cochain.values[0] + A.x()] + cochain.values[1:]
        return original(A, Cochain(A, cochain.degree, values))

    monkeypatch.setattr(yo, "express", perturbed)
    code, out = run(
        capsys,
        "product", "--a", "2", "--deg1", "0", "--i", "0", "--deg2", "2", "--j", "0",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["config"] == {"a": 2, "deg1": 0, "i": 0, "deg2": 2, "j": 0}
    assert payload["checks"] == [
        {"name": "cocycle", "status": "fail",
         "witness": "cochain of degree 2 is not a cocycle"}
    ]


def non_cocycle_product(monkeypatch):
    """Add x on generator 0 to every product cochain before it is expressed."""
    import qci_hochschild.yoneda as yo
    from qci_hochschild.cohomology import Cochain

    original = yo.express

    def perturbed(A, cochain):
        values = [cochain.values[0] + A.x()] + cochain.values[1:]
        return original(A, Cochain(A, cochain.degree, values))

    monkeypatch.setattr(yo, "express", perturbed)


@pytest.mark.parametrize("command", (
    ["table", "--a", "3", "--max-degree", "2"],
    ["verify", "--a", "3", "--suite", "table", "--max-degree", "2"],
))
@pytest.mark.parametrize("break_check, check", (
    (lambda mp: non_cocycle_basis(mp, only_degree=2),
     {"name": "named basis", "status": "fail", "witness": "zeta_0 in degree 2 is not a cocycle"}),
    (non_cocycle_product,
     {"name": "cocycle", "status": "fail", "witness": "cochain of degree 0 is not a cocycle"}),
), ids=("basis", "cocycle"))
def test_table_check_failure_exit_code(capsys, monkeypatch, command, break_check, check):
    # a failed basis or cocycle check inside the table is a failing
    # certificate with exit 1, not a traceback or a usage error
    break_check(monkeypatch)
    code, out = run(capsys, *command)
    assert code == 1
    payload = json.loads(out)
    assert payload["suite"] == "table"
    assert payload["status"] == "fail"
    assert payload["checks"] == [check]


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


@pytest.mark.parametrize("cap", ["-5", "0", "ten"])
def test_oracle_unusable_cap_is_usage_error(capsys, monkeypatch, cap):
    # a cap below 1 is a bad setting, not a failed check
    monkeypatch.setenv(cli.ENV_SIZE_CAP, cap)
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--a", "2", "--max-degree", "1"])
    assert exc.value.code == 2
    assert f"QCIHH_SIZE_CAP must be a positive integer, got '{cap}'" in capsys.readouterr().err


def test_oracle_default_cap_counts_normalized_cochains(capsys, monkeypatch):
    # a=2 degree 7 needs 26,244 normalized rows (262,144 full ones)
    monkeypatch.delenv(cli.ENV_SIZE_CAP, raising=False)
    code, out = run(capsys, "oracle", "--a", "2", "--max-degree", "7")
    assert code == 0
    assert [row["bar"] for row in json.loads(out)["rows"]] == [2 * n + 2 for n in range(8)]


def test_oracle_default_cap_refuses_a3_degree4(capsys, monkeypatch):
    # a=3 degree 4 needs 294,912 normalized rows, over the default cap
    monkeypatch.delenv(cli.ENV_SIZE_CAP, raising=False)
    code = cli.main(["oracle", "--a", "3", "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cochain space of dimension 294912 exceeds the cap 100000" in captured.err


def test_oracle_composite_modulus_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--a", "2", "--max-degree", "3", "--modulus", "9"])
    assert exc.value.code == 2
    assert "modulus 9 is not prime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["oracle", "--a", "2", "--max-degree", "1", "--modulus", "3317044064679887385961983"],
     ["dims", "--a", "2", "--max-degree", "1", "--backend", "prime:3317044064679887385961983"]],
    ids=["oracle", "dims"],
)
def test_modulus_past_primality_bound_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "primality is decided only below 3317044064679887385961981" in capsys.readouterr().err


@pytest.mark.parametrize(
    "modulus, top, dims",
    [("2147483647", "3", [2, 4, 6, 8]), ("90000049", "1", [2, 4]),
     ("10000000000000061", "1", [2, 4])],
    ids=["2147483647", "90000049", "10000000000000061"],
)
def test_oracle_large_modulus(capsys, modulus, top, dims):
    # any prime p = 1 (mod a) is exact: residues are Python ints
    code, out = run(capsys, "oracle", "--a", "2", "--max-degree", top, "--modulus", modulus)
    assert code == 0
    payload = json.loads(out)
    assert payload["backend"] == f"prime({modulus})"
    assert [row["bar"] for row in payload["rows"]] == dims


def test_internal_error_is_not_a_usage_error(monkeypatch):
    # a bug inside a subcommand must surface as a traceback, not as exit 2
    def broken(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "dimension_table", broken)
    with pytest.raises(IndexError):
        cli.main(["dims", "--a", "3", "--max-degree", "2"])


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


@pytest.mark.parametrize("backend", ["prime:x", "prime:", "prime:7:1"])
def test_prime_backend_without_integer_modulus_is_usage_error(capsys, backend):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--a", "3", "--backend", backend])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"backend {backend!r} is not 'prime:P' with P an integer" in err
    assert "invalid literal" not in err


def test_prime_backend_order_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--a", "1", "--backend", "prime"])
    assert exc.value.code == 2
    assert "a must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "index, message",
    [
        (["--i", "-1", "--j", "0"], "--i must be in 0..5 for --deg1 2, got -1"),
        (["--i", "0", "--j", "6"], "--j must be in 0..2 for --deg2 2, got 6"),
        (["--i", "99", "--j", "0"], "--i must be in 0..5 for --deg1 2, got 99"),
        # --j names the scalar class being lifted, so a non-scalar class is refused
        (["--i", "0", "--j", "4"], "--j must be in 0..2 for --deg2 2, got 4"),
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


def test_rational_backend_without_root_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--a", "3", "--backend", "rational"])
    assert exc.value.code == 2
    assert "the rationals contain no primitive root of order 3" in capsys.readouterr().err


def test_backend_env_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BACKEND, "prime")
    code, out = run(capsys, "dims", "--a", "3", "--max-degree", "2")
    assert code == 0
    assert json.loads(out)["backend"] == "prime(7)"


# SHA-256 of the stdout of every subcommand at small sizes, on the cyclotomic
# and the prime backend wherever a subcommand takes --backend, and on the
# rational backend at a = 2 wherever the subcommand admits a = 2.  The output is
# promised byte for byte, so any change to these bytes is a change of output.
GOLDEN_STDOUT = {
    "dims --a 3 --backend cyclotomic --max-degree 4":
        "74db2cf83a5014727ada4bf0a613ceec0c677b5fb3d58e6ecff4b6f788379d45",
    "dims --a 2 --backend cyclotomic --max-degree 3 --format csv":
        "64ce16111d5d1cdbc35271d012be1ee14bb927549f7bafa65b38947aebe1d00e",
    "basis --a 3 --backend cyclotomic --degree 2":
        "b5aeb4f68709733a0a7d4182801d412f17d0520faa25bb3c10e62f3ff205638c",
    "product --a 3 --backend cyclotomic --deg1 2 --i 4 --deg2 2 --j 1":
        "8d04145300a972f32115d571f9e1811e3e2b07d204980a41224728d5cd3c6a89",
    "product --a 3 --backend cyclotomic --deg1 2 --i 2 --deg2 2 --j 2":
        "569e1406415d81c8a9995cffb695551999fd1cb5c0422d86a1434c75d0d16a7e",
    "table --a 3 --backend cyclotomic --max-degree 4":
        "0615b2a2a7b6e046d3f3ac4f70a2e545285ff4ae8698bcd8d15d0029b48c83ee",
    "verify --a 3 --backend cyclotomic --suite liftings --t-max 1 --s-max 3":
        "a25574f9f2f563f03a1edc35f83ea5d783aeaf043a74450b9c9591bd63055fbc",
    "verify --a 3 --backend cyclotomic --suite relations":
        "5c1af25219ecab01fa829282250705a9c136efa0c8126dbdec5989a4fcb88a5d",
    "verify --a 2 --backend cyclotomic --suite table --max-degree 4":
        "84a0e09a1ab1648dbf2417084f8efc72fc455845e554e9ebe393c2afbcddda05",
    "dump-resolution --a 3 --backend cyclotomic --max-degree 2":
        "972ccdc93a487fc1d980bb253529258fe0104b19a26b8c987cf8cacfda001593",
    "dims --a 3 --backend prime --max-degree 4":
        "efe5f387a1fa682903981695d794828b2c874c028cf9ad321e1de55b61426b79",
    "dims --a 2 --backend prime --max-degree 3 --format csv":
        "64ce16111d5d1cdbc35271d012be1ee14bb927549f7bafa65b38947aebe1d00e",
    "basis --a 3 --backend prime --degree 2":
        "0a660bf82b582ec7da5641d0d2fccf24e3ab9cbb07d1e048f352097e896269a6",
    "product --a 3 --backend prime --deg1 2 --i 4 --deg2 2 --j 1":
        "9b578dc0c2c2a47667d85545e3d0ba31342d84f1d1788961a5a97fc43455aa41",
    "product --a 3 --backend prime --deg1 2 --i 2 --deg2 2 --j 2":
        "bfb9233eb3ece02e071ea6ab2a4c7468a3ca47a9538f3cf16593e13cb5b8e30e",
    "table --a 3 --backend prime --max-degree 4":
        "267f2825f6afcd7d48762f012bb2447ca9aa6c8475f64082e7a3aeef786dc32e",
    "verify --a 3 --backend prime --suite liftings --t-max 1 --s-max 3":
        "917266e2e70d139c882e4aa4d88a03e4e51b5598baabf23621f237790760547e",
    "verify --a 3 --backend prime --suite relations":
        "f117e32f0db01c28b104983a1f76b7a1dffae0ad352979050d9af2af6d8fc3f1",
    "verify --a 2 --backend prime --suite table --max-degree 4":
        "ef7d2674a613fe075233c20c45bfd927a28790205fa09f614f138ecda72c2ca6",
    "dump-resolution --a 3 --backend prime --max-degree 2":
        "55f45913ce8407088183b2f2f180d82216b3158b370f4a123892ddcf78538cee",
    "dims --a 2 --backend rational --max-degree 4":
        "e3e2ed54213cbfa4920236f65a7cc842564b456e53205241e546fb3897b8eefe",
    "dims --a 2 --backend rational --max-degree 3 --format csv":
        "64ce16111d5d1cdbc35271d012be1ee14bb927549f7bafa65b38947aebe1d00e",
    "basis --a 2 --backend rational --degree 2":
        "6775d5234797e458b3f099392ab239731c0314b86987215db0328909e8b9287e",
    "product --a 2 --backend rational --deg1 2 --i 1 --deg2 2 --j 1":
        "aab441b1feff6cb6326003cb58d0f87a2e0727e73b310b73b2dcddc48756aa72",
    "table --a 2 --backend rational --max-degree 4":
        "2c4a4a84b89de32f269d988110b1d6062086c43057f208d6e3943cb8610aeecd",
    "verify --a 2 --backend rational --suite liftings --t-max 1 --s-max 3":
        "0692fa7e55da32b3bb3cfaa2feddd123210d0c4bf7878bc38288abe2b7510e2d",
    "verify --a 2 --backend rational --suite table --max-degree 4":
        "5fdb8df4cb3486df8895337d1dfaba9479c7d60e6626786b82eb31482004e113",
    "dump-resolution --a 2 --backend rational --max-degree 3":
        "df35a8ea387024b8fa17b856cf7f4cb74683a48d54cc63ec0ade114c9639628a",
    "oracle --a 2 --max-degree 2":
        "04f74ec8d3893a1beea28ff6968e6081af501f1d60ef81a5a657bbc80d6a7989",
    "oracle --a 3 --max-degree 1":
        "5d51859aeee1c94ff39d27c3bf8e8df1dca7d1b0cf8293d1ffb493c886c154b2",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT), ids=lambda c: c.replace(" ", "_"))
def test_golden_stdout(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("command", sorted(BENCH_DIGESTS))
def test_benchmark_digests(command, capsys):
    # every invocation of the benchmark's workloads, read-only from its digest file
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_DIGESTS[command]


def test_benchmark_digests_cover_every_workload():
    assert {"dims", "oracle", "table", "verify"} <= {command.split()[0] for command in BENCH_DIGESTS}
