"""The old name of :func:`repro.analysis.flow.propagation_graph`.

Flow graphs are memoised on their model and persisted nowhere; this
alias is kept only because the frozen e2e tracer
(``benchmarks/e2e/trace.py``) wraps the accessor by this module and
name (DESIGN §5.3).  It is the same function object, so the tracer's
rebinding reaches every module that imported ``propagation_graph``.
"""

from ..analysis.flow import propagation_graph

cached_propagation_graph = propagation_graph
