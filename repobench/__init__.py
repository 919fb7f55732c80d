"""Repository benchmark: four workloads, independent answer checks, an outside-in traced run."""
