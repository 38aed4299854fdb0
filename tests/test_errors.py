import tracemalloc
from fractions import Fraction

import pytest

import pressqubo as pq
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
