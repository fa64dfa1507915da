"""The zariski benchmark: seeded workloads, untraced end-to-end metrics,
and a separate traced run that times each module from outside."""
