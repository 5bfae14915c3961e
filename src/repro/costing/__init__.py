"""Statistics and cost: the cardinality estimator and the cost model that
the planner chooses with and the checker re-prices with."""
