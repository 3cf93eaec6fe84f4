"""Admission control, pricing and scheduling analytics for an EV charging station.

The package models the station as two queues in series: a virtual
admission queue that regulates how often EVs may enter, followed by a
multi-port FIFO charging queue with deterministic service. It provides
the closed-form analysis of that tandem system, a profit-maximizing
optimizer over the admission parameters and the charged energy, an exact
Markov-chain oracle for verification, a discrete-event simulator with two
benchmark policies, and batch experiment runners with CSV output.
"""
from .config import ConfigError, RunOptions, Scenario, load_config, parse_config, with_penalty
from .ctmc import TwoPhaseChain, build_generator, occupancy_marginal, steady_state
from .economics import (
    DomainError,
    EconomicParams,
    StationParams,
    demand_region_bound,
    demand_response,
    per_ev_profit,
    price_for_demand,
    utility,
)
from .experiments import (
    ExperimentReport,
    run_admission_validation,
    run_daily_experiment,
    run_tau_study,
    run_wait_validation,
)
from .optimizer import optimize_joap, optimize_joap_many, optimize_tau
from .queueing import (
    AdmissionAnalysis,
    JoapPolicy,
    admitted_interarrival_moments,
    analyze_admission,
    brute_force_oracle,
    erlang_blocking,
    erlang_steady_state,
    profit_s,
)
from .simulator import (
    GreedyAdmission,
    JoapAdmission,
    QbaAdmission,
    SimMetrics,
    gen_poisson_arrivals,
    replicate,
    rng_for_stream,
    run_loss_admission,
)

__version__ = "1.0.0"
