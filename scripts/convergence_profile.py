"""Calibrate the brute-force tail model for the quadratic-kernel series.

Sweeps the truncation length of the direct oracle for
sum_{n>=1} s_b(n)/(n+z)^2 and prints the bracket midpoint and half-width
against the closed-form value, so the residual gap at each length is visible
next to the modeled uncertainty.
"""
import argparse
import time

from digitsum.identities import digit_zeta_2, direct_digit_zeta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=2)
    parser.add_argument("--z", type=float, default=1.0)
    parser.add_argument(
        "--lengths",
        default="10000,100000,1000000,10000000",
        help="Comma-separated oracle truncation lengths.",
    )
    args = parser.parse_args()

    closed = digit_zeta_2(args.base, args.z)
    print(f"closed value (regularized): {closed:.15g}")
    print(f"{'terms':>10s} {'oracle mid':>22s} {'half bracket':>13s} {'|closed-mid|':>13s} {'secs':>7s}")
    for token in args.lengths.split(","):
        limit = int(token)
        start = time.perf_counter()
        mid, half = direct_digit_zeta(args.base, 2.0, args.z, limit)
        elapsed = time.perf_counter() - start
        gap = abs(closed - mid)
        print(f"{limit:>10d} {mid:>22.15g} {half:>13.3e} {gap:>13.3e} {elapsed:>7.2f}")
    print()
    print("the gap should sit inside the half bracket at every length;")
    print("both shrink like (log n)/n, which is why the order-2 comparison")
    print("is budgeted in absolute terms rather than relative ones")


if __name__ == "__main__":
    main()
