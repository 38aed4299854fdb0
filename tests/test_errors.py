import tracemalloc
from fractions import Fraction

import pytest

import pressqubo as pq
from pressqubo.cli import main
from pressqubo.errors import SIZE_GUARD, TooLarge, check_size
from pressqubo.qubo import Qubo, full_spectrum


def test_check_size_admits_the_guard_and_refuses_one_more():
    assert SIZE_GUARD == 1 << 26
    check_size("a table", SIZE_GUARD)
    with pytest.raises(TooLarge, match=r"^a table has 67108865 entries, over the 2\^26 guard$"):
        check_size("a table", SIZE_GUARD + 1)
    with pytest.raises(TooLarge, match=r"2\^26 guard \(it needs about 1\.5 GiB\)$"):
        check_size("a table", SIZE_GUARD + 1, 3 << 29)


def _two_machines(toolkits: int) -> pq.Instance:
    ts = tuple(f"t{i}" for i in range(toolkits))
    ms = ("m0", "m1")
    ones = {(t, m): Fraction(1) for t in ts for m in ms}
    return pq.Instance(id="wide", toolkits=ts, machines=ms, cost=ones, workload=ones,
                       capacity={m: Fraction(toolkits) for m in ms})


# The first size above the guard for each caller: 2^27 entries.
CALLERS = {
    "exact_solve": (lambda: pq.exact_solve(_two_machines(27)), r"2\^27 assignments"),
    "full_spectrum": (lambda: full_spectrum(Qubo(n=27, coeffs={}, offset=0)),
                      r"full spectrum of 27 variables"),
    "statevector": (lambda: pq.run_lrqaoa(Qubo(n=27, coeffs={}, offset=0), pq.lr_schedule(1),
                                          shots=1, seeds=[0]),
                    r"statevector of 27 qubits"),
}


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_each_caller_refuses_the_first_size_above_the_guard_without_allocating(name):
    call, named = CALLERS[name]
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=named + r" has 134217728 entries, over the 2\^26"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_sizes_are_written_as_powers_of_two():
    # Digits below 2^53, and from there the power of two at or below.
    with pytest.raises(TooLarge, match=r"^a has 9007199254740991 entries, over the 2\^26 guard$"):
        check_size("a", 2**53 - 1)
    with pytest.raises(TooLarge, match=r"^a has 2\^53 entries, over the 2\^26 guard$"):
        check_size("a", 2**53)
    with pytest.raises(TooLarge, match=r"^a has over 2\^3169 entries, over the 2\^26 guard$"):
        check_size("a", 3**2000)
    with pytest.raises(TooLarge, match=r"^a has 2\^1040 entries, over the 2\^26 guard "
                                       r"\(it needs about 2\^1014 GiB\)$"):
        check_size("a", 2**1040, 17 << 1040)
    # 2^83 bytes is 2^53 GiB, the first size written as a power.
    with pytest.raises(TooLarge, match=r"\(it needs about 9007199254740991\.0 GiB\)$"):
        check_size("a", 2**60, 2**83 - 2**30)
    with pytest.raises(TooLarge, match=r"\(it needs about 2\^53 GiB\)$"):
        check_size("a", 2**60, 2**83)


@pytest.mark.parametrize("solver", ["brute", "lrqaoa"])
def test_cli_refuses_a_huge_declared_map_in_one_line(solver, tmp_path, capsys):
    path = tmp_path / "f.coo"
    path.write_text("2000 0\n")
    assert main(["solve", str(path), "--solver", solver, "-o",
                 str(tmp_path / "s.csv")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200
    assert "has 2^2000 entries, over the 2^26 guard (it needs about 2^197" in err
    assert not (tmp_path / "s.csv").exists()
