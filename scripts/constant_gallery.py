"""Gallery of named constants recovered from digit-sum weighted series.

Each row evaluates one series by its closed form and by an independent
route (series inversion or a long direct sum) and prints both against the
textbook constant.
"""
import argparse
import math

from digitsum.identities import infinite_product, j_infinity
from digitsum.solver import SequenceFn, weighted_digit_sum
from digitsum.specfun import elliptic_K


def harmonic_pair() -> SequenceFn:
    return SequenceFn(
        eval=lambda n: 1.0 / (n * (n + 1.0)),
        decay=(1.0, 2.0),
        partial_sum=lambda a, c: 1.0 / a - 1.0 / c,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bases", default="2,3,4,5,10", help="Bases for the log-b family.")
    args = parser.parse_args()

    print(f"{'constant':>22s} {'closed form':>22s} {'second route':>22s} {'rel gap':>10s}")

    for b in (int(tok) for tok in args.bases.split(",")):
        want = b / (b - 1.0) * math.log(b)
        closed = j_infinity(b, 0.0)
        solved = weighted_digit_sum(b, harmonic_pair())
        gap = abs(closed - solved) / abs(want)
        label = f"(b/(b-1)) log b, b={b}"
        print(f"{label:>22s} {closed:>22.15g} {solved:>22.15g} {gap:>10.1e}")

    half_circle = infinite_product(2, 1.0) / infinite_product(2, 0.5)
    gap = abs(half_circle - math.pi / 2.0) / (math.pi / 2.0)
    print(f"{'pi/2':>22s} {math.pi / 2.0:>22.15g} {half_circle:>22.15g} {gap:>10.1e}")

    quarter = infinite_product(2, 0.5) / infinite_product(2, 0.25)
    lemniscatic = elliptic_K(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)
    gap = abs(quarter - lemniscatic) / lemniscatic
    print(f"{'K(1/sqrt2)/sqrt2':>22s} {lemniscatic:>22.15g} {quarter:>22.15g} {gap:>10.1e}")


if __name__ == "__main__":
    main()
