"""Reduced benchmark grid; rerunning with the same seed is bit-identical."""

import warnings

from adjustkit.sim_bench import run_benchmark


def main():
    warnings.simplefilter("ignore")
    grid = dict(
        model_ids=(1, 4),
        n_values=(400, 800),
        variants=("mn", "gc"),
        reps=25,
        seed=0,
        arms=(0,),
    )
    res = run_benchmark(**grid)
    print(res.render())
    again = run_benchmark(**grid)
    print(f"rerun with the same seed identical: {res.to_csv() == again.to_csv()}")


if __name__ == "__main__":
    main()
