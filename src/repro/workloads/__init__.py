"""Synthetic workload generators (stand-ins for Yago3/DBPedia/social data)."""

from repro.workloads.churn import ChurnStream, churn_stream, social_churn_stream
from repro.workloads.kb import PlantedErrors, synthetic_knowledge_base
from repro.workloads.overlapping import overlapping_rule_set, overlapping_workload
from repro.workloads.random_graphs import bounded_rule_set, validation_workload
from repro.workloads.social import SpamGroundTruth, synthetic_social_network

__all__ = [
    "ChurnStream",
    "PlantedErrors",
    "SpamGroundTruth",
    "bounded_rule_set",
    "churn_stream",
    "overlapping_rule_set",
    "overlapping_workload",
    "social_churn_stream",
    "synthetic_knowledge_base",
    "synthetic_social_network",
    "validation_workload",
]
