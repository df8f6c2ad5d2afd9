"""Simulated CI/CD supply-chain defense loop.

Modules:
    env        -- deterministic pipeline simulation and attack scenarios
    agents     -- detection agents, reasoner, five-agent sweep
    learning   -- finite MDPs, value iteration, Q-learning, clipped-surrogate PG
    ledger     -- tamper-evident audit chain with quorum commits
    protocol   -- newline-delimited JSON message layer and connectors
    evaluation -- experiment arms, metrics, ablations
    cli        -- command-line entry points
"""

__version__ = "0.1.0"
