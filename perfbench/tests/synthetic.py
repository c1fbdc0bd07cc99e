"""A call tree with known durations, timed on a fake clock."""

from functools import lru_cache

NOW = [0.0]


def clock() -> float:
    return NOW[0]


def spend(seconds: float) -> None:
    NOW[0] += seconds


class Tree:
    """root -> (1s) branch -> (2s) leaf (3s), (4s) leaf (5s) -> (6s);
    branch -> unprobed helper -> leaf (7s)."""

    def root(self):
        spend(1.0)
        self.branch()
        spend(6.0)
        return "root"

    def branch(self):
        spend(2.0)
        leaf(3.0)
        spend(4.0)
        leaf(5.0)
        helper()

    @staticmethod
    def static_leaf():
        spend(0.5)

    @property
    def measured(self):
        spend(0.25)
        return 42


def leaf(seconds: float) -> None:
    spend(seconds)


def helper() -> None:
    leaf(7.0)


@lru_cache(maxsize=None)
def derive(value: int) -> int:
    spend(1.0)
    return value * 2


def failing():
    spend(1.0)
    raise RuntimeError("boom")
