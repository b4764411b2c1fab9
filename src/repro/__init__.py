"""DI-GRUBER reproduction (SC 2005).

A production-quality Python reimplementation of the GRUBER / DI-GRUBER
grid USLA resource-brokering system of Dumitrescu, Raicu & Foster,
together with every substrate its evaluation depends on: a
discrete-event simulation kernel, a WAN/service-container model, an
emulated Grid3-scale fabric, the DiPerF performance-testing harness,
and the GRUB-SIM trace-driven decision-point sizing simulator.

Quick start::

    from repro.experiments import ExperimentConfig, run_scalability
    result = run_scalability(ExperimentConfig(decision_points=3))
    print(result.summary())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
