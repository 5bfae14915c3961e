"""Attribute closure and FD implication — including the Figure 7 scenario."""

from repro.fd.closure import closure, implies
from repro.fd.dependency import FunctionalDependency

FD = FunctionalDependency


class TestClosure:
    def test_reflexive(self):
        assert closure(["a"], []) == frozenset({"a"})

    def test_single_step(self):
        assert closure(["a"], [FD(["a"], ["b"])]) == frozenset({"a", "b"})

    def test_transitive(self):
        fds = [FD(["a"], ["b"]), FD(["b"], ["c"])]
        assert closure(["a"], fds) == frozenset({"a", "b", "c"})

    def test_composite_lhs_requires_all(self):
        fds = [FD(["a", "b"], ["c"])]
        assert "c" not in closure(["a"], fds)
        assert "c" in closure(["a", "b"], fds)

    def test_constant_fd_fires_unconditionally(self):
        """Empty-LHS FDs model constant-bound columns."""
        assert closure(["a"], [FD([], ["k"])]) == frozenset({"a", "k"})

    def test_figure7_scenario(self):
        """Figure 7: from A1 = 25 (constant), A1 -> A3, A3 = A4 conclude
        A2 -> A4 — i.e. A4 is in the closure of {A2}."""
        fds = [
            FD([], ["A1"]),            # a: A1 = 25
            FD(["A1"], ["A3"]),        # b: A1 -> A3
            FD(["A3"], ["A4"]),        # c: A3 = A4 (one direction)
            FD(["A4"], ["A3"]),        #    and the other
        ]
        assert "A4" in closure(["A2"], fds)


class TestImplies:
    def test_implied(self):
        fds = [FD(["a"], ["b"]), FD(["b"], ["c"])]
        assert implies(fds, FD(["a"], ["c"]))

    def test_not_implied(self):
        fds = [FD(["a"], ["b"])]
        assert not implies(fds, FD(["b"], ["a"]))

    def test_augmentation(self):
        fds = [FD(["a"], ["b"])]
        assert implies(fds, FD(["a", "c"], ["b", "c"]))
