"""Fault injection and resilience policies for the server model.

The north-star deployment runs the accelerated tier hot near
saturation; this subsystem models what production meets there —
accelerator faults, worker crashes, stragglers — and the policies
(timeouts, retries with decorrelated jitter, a circuit breaker onto
the software fallback path, admission control) that keep goodput and
tail latency acceptable while degraded.

* :mod:`repro.resilience.faults`    — deterministic fault schedules
* :mod:`repro.resilience.policies`  — retry/breaker/shedding knobs
* :mod:`repro.resilience.simulator` — the event-driven resilient tier
* :mod:`repro.resilience.report`    — degraded-mode metrics
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "faults": (
        "ACCEL_FAULT_KINDS", "FaultInjector", "FaultSchedule", "FaultScenario",
        "FaultWindow", "WorkerCrash", "standard_scenarios",
    ),
    "policies": (
        "AdaptiveConcurrencyLimit", "AdaptiveConcurrencyPolicy",
        "CircuitBreaker", "CircuitBreakerPolicy", "ResiliencePolicy",
        "RetryBudget", "RetryBudgetPolicy", "RetryPolicy", "full_policy",
        "no_policy", "retries_only", "standard_policies",
    ),
    "report": ("ResilienceReport", "ScenarioSweep"),
    "simulator": (
        "ResilientServerConfig", "ResilientServerSimulator", "run_matrix",
    ),
})
