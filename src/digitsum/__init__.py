"""Digit-sum series toolkit.

Closed-form evaluators for finite and infinite sums weighted by base-b
digit sums, the independent brute-force oracles that check them, and a
reporting harness that runs the whole battery with explicit truncation
and tolerance control.
"""

from __future__ import annotations

from . import altsum, digitseq, harness, identities, lambert, solver, specfun
