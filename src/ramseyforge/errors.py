"""Shared error types, search budgets and size-Ramsey host caps."""


class BudgetExceededError(RuntimeError):
    """A node-capped search ran out of budget; shrink the instance or raise the cap."""


class UnreachableOrderError(ValueError):
    """A randomized generator could not hit the requested order within its retry budget."""


class ExhaustedPermutationsError(RuntimeError):
    """Gadget sampling could not produce enough pairwise non-isomorphic members."""


class CapsTooSmallError(RuntimeError):
    """Exact host enumeration finished without a witness; the caps were too tight."""


class InvalidBaseColoringError(ValueError):
    """The base coloring handed to the clique lift already has a monochromatic clique."""


# The default node caps of the exhaustive searches, then the size-Ramsey host caps.
# An answer holds only relative to the caps its search ran under: each is stated once.
ARROWS_NODE_CAP = 100_000_000  # decision nodes of the arrow search
COPY_NODE_CAP = 10_000_000  # candidates tried by a copy or orbit search
ISOMORPHISM_NODE_CAP = 5_000_000  # candidates of find_isomorphism's copy search
INDEPENDENCE_NODE_CAP = 2_000_000  # branch-and-bound nodes of independence_number
MAX_HOST_EDGES = 18  # edges of a host that size_ramsey_upper decides
EXACT_VCAP = 9  # vertices of a host that size_ramsey_exact_tiny scans
EXACT_ECAP = 12  # edges of a host that size_ramsey_exact_tiny scans


class Budget:
    """Mutable countdown of search-tree nodes.

    spend() raises BudgetExceededError once the cap is crossed, so a
    search aborts instead of running unbounded.
    """

    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        if cap < 0:
            raise ValueError(f"a search budget must be non-negative, got {cap}")
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceededError(f"search budget of {self.cap} nodes exceeded")
