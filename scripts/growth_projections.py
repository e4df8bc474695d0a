#!/usr/bin/env python3
"""Print projection tables for the built-in growth models.

Evaluates the catalog curves over their calendar ranges and refits the
recorded monthly article totals to show how the quasi-linear families
extrapolate a few years out.
"""
import argparse

import numpy as np

from knowgrow.fitting import forecast, select_points
from knowgrow.growth import QUASI_LINEAR_FAMILIES, model_catalog
from knowgrow.months import month_index

ARTICLE_TOTALS = {  # monthly English-Wikipedia article totals (2021-06 missing)
    "2021-05": 6_304_698,
    "2021-07": 6_347_547,
    "2021-08": 6_368_943,
    "2021-09": 6_390_319,
    "2021-10": 6_411_676,
    "2021-11": 6_433_014,
    "2021-12": 6_454_334,
    "2022-01": 6_475_635,
    "2022-02": 6_496_917,
}


def category_projection_table(until_year: int) -> None:
    model = model_catalog()["wiki_categories"]
    print("category counts, 2000*(t+12)*ln(t+12), t=1 at 2006-01:")
    for year in range(2023, until_year + 1):
        month = f"{year}-01"
        print(f"  {month}  {model.evaluate(model.index_of(month)):>12,.0f}")


def article_forecast_table(until_year: int) -> None:
    origin = "2021-01"
    t = np.array([month_index(origin, m) for m in ARTICLE_TOTALS], dtype=float)
    y = np.array(list(ARTICLE_TOTALS.values()), dtype=float)
    ranked = select_points(t, y, QUASI_LINEAR_FAMILIES, t_origin=origin)
    best = ranked[0]
    print(f"article totals refit: picked {best.model.family} "
          f"(mape {best.mape:.2e}); projections:")
    fc = forecast(best, f"{until_year}-01")
    months = {fc.month_at(i + 1): v for i, v in enumerate(fc.values)}
    for year in range(2023, until_year + 1):
        month = f"{year}-01"
        print(f"  {month}  {months[month]:>12,.0f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--until-year", type=int, default=2026)
    args = parser.parse_args()
    category_projection_table(args.until_year)
    print()
    article_forecast_table(args.until_year)


if __name__ == "__main__":
    main()
