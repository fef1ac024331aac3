"""Cycle-cost model of on-device signature sorting (paper Section 6.2).

The paper sorts signatures on the ARM platform's primary Cortex-A7 core
using a balanced binary tree written in C; Figure 10 reports this as the
third execution-time component.  We model the cost of inserting the
i-th signature as ``ceil(log2(i + 1))`` tree-node comparisons, each
costing a fixed number of cycles per signature word compared (pointer
chase + multi-word compare).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SortCostModel:
    """Balanced-BST insertion cost in cycles."""

    cycles_per_comparison: float = 22.0   # node fetch + compare + branch
    word_compare_cost: float = 2.0        # extra cost per signature word

    def insert_cost(self, tree_size: int, signature_words: int) -> float:
        """Cycles to insert one signature into a tree of ``tree_size``."""
        comparisons = max(1, math.ceil(math.log2(tree_size + 1)))
        per_comparison = (self.cycles_per_comparison
                          + self.word_compare_cost * signature_words)
        return comparisons * per_comparison

