"""contlogic benchmark harness; run perfbench/run.py."""
