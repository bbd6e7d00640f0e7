"""Regenerate the committed synthetic data fixtures under data/.

Both files are deterministic.  The ratings file is reproduced byte for
byte; the GP file's inputs are too, but its outputs come from a Cholesky
draw whose last bits depend on the platform's LAPACK, so they may differ
from the committed ones by rounding (~1e-14 of their scale).
"""

from pathlib import Path

from spectral_cheb.tasks import synthetic_completion_data, synthetic_gp_data

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def ratings_text() -> str:
    rs = synthetic_completion_data(d=30, r=20, rank=2, observed_frac=0.6, seed=2024)
    lines = ["user,item,rating"]
    for u, i, r in zip(rs.users, rs.items, rs.ratings):
        lines.append(f"{u},{i},{float(r)!r}")
    return "\n".join(lines) + "\n"


def gp_text() -> str:
    x, y = synthetic_gp_data(d=200, theta=(0.3, 1.2, 0.8), seed=2024)
    lines = [f"{float(xi)!r},{float(yi)!r}" for xi, yi in zip(x[:, 0], y)]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    (DATA / "synthetic_ratings.csv").write_text(ratings_text())
    (DATA / "synthetic_gp.csv").write_text(gp_text())
    print("wrote data/synthetic_ratings.csv and data/synthetic_gp.csv")
