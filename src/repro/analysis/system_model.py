"""Aggregated static model of one mini system.

A :class:`SystemModel` merges the per-module facts of a system package and
provides the lookups every downstream analysis needs: name-based call
resolution, innermost enclosing condition / try / handler, slicing-style
"who writes this variable", and an exception subtype relation extended
with the system's own exception classes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pickle
import pkgutil
import sys
import warnings
import weakref
from typing import Callable, Iterable, Optional

from ..cache import runcache
from ..logs.sanitize import LogTemplate, TemplateMatcher
from ..sim import errors as sim_errors
from .ast_facts import (
    AssignFact,
    CallFact,
    ConditionFact,
    EnvCallFact,
    FunctionFact,
    HandlerFact,
    LogFact,
    ModuleFacts,
    RaiseFact,
    ReturnFact,
    TryFact,
    extract_module_facts,
)


#: model -> {key: value}: everything memoised per :class:`SystemModel`
#: (exception analysis, flow graph, template matcher, prepared cases).
#: A table dies with its model; :func:`clear_facts_cache` drops them all.
_MODEL_MEMOS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class SystemModel:
    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules = list(modules)
        self.functions: list[FunctionFact] = []
        self.logs: list[LogFact] = []
        self.env_calls: list[EnvCallFact] = []
        self.raises: list[RaiseFact] = []
        self.calls: list[CallFact] = []
        self.trys: list[TryFact] = []
        self.conditions: list[ConditionFact] = []
        self.assigns: list[AssignFact] = []
        self.returns: list[ReturnFact] = []
        self._class_bases: dict[str, tuple[str, ...]] = {}
        for facts in self.modules:
            self.functions.extend(facts.functions)
            self.logs.extend(facts.logs)
            self.env_calls.extend(facts.env_calls)
            self.raises.extend(facts.raises)
            self.calls.extend(facts.calls)
            self.trys.extend(facts.trys)
            self.conditions.extend(facts.conditions)
            self.assigns.extend(facts.assigns)
            self.returns.extend(facts.returns)
            for cls in facts.classes:
                self._class_bases[cls.name] = cls.bases

        self._functions_by_name: dict[str, list[FunctionFact]] = {}
        for fn in self.functions:
            self._functions_by_name.setdefault(fn.name, []).append(fn)
        self._functions_by_qualname = {fn.qualname: fn for fn in self.functions}
        self._calls_by_callee: dict[str, list[CallFact]] = {}
        for call in self.calls:
            self._calls_by_callee.setdefault(call.callee, []).append(call)
        self._assigns_by_target: dict[str, list[AssignFact]] = {}
        for assign in self.assigns:
            for target in assign.targets:
                self._assigns_by_target.setdefault(target, []).append(assign)
        self._env_by_function: dict[str, list[EnvCallFact]] = {}
        for env_call in self.env_calls:
            self._env_by_function.setdefault(env_call.function, []).append(env_call)
        self._raises_by_function: dict[str, list[RaiseFact]] = {}
        for raise_fact in self.raises:
            self._raises_by_function.setdefault(raise_fact.function, []).append(
                raise_fact
            )
        self._calls_by_caller: dict[str, list[CallFact]] = {}
        for call in self.calls:
            self._calls_by_caller.setdefault(call.caller, []).append(call)
        self._trys_by_function: dict[str, list[TryFact]] = {}
        for try_fact in self.trys:
            self._trys_by_function.setdefault(try_fact.function, []).append(try_fact)

    def memo(self, key, build: Callable[[], object]):
        """``build()``, once per model and hashable ``key``.

        A model is immutable after construction, so whatever is derived
        from it alone can be shared by every search over it.
        """
        table = _MODEL_MEMOS.setdefault(self, {})
        if key not in table:
            table[key] = build()
        return table[key]

    # ------------------------------------------------------------------ lookups

    def functions_named(self, name: str) -> list[FunctionFact]:
        return self._functions_by_name.get(name, [])

    def function(self, qualname: str) -> Optional[FunctionFact]:
        return self._functions_by_qualname.get(qualname)

    def calls_to(self, name: str) -> list[CallFact]:
        return self._calls_by_callee.get(name, [])

    def calls_in(self, qualname: str) -> list[CallFact]:
        return self._calls_by_caller.get(qualname, [])

    def env_calls_in(self, qualname: str) -> list[EnvCallFact]:
        return self._env_by_function.get(qualname, [])

    def raises_in(self, qualname: str) -> list[RaiseFact]:
        return self._raises_by_function.get(qualname, [])

    def assigns_to(self, variable: str) -> list[AssignFact]:
        return self._assigns_by_target.get(variable, [])

    def enclosing_condition(
        self, file: str, line: int
    ) -> Optional[ConditionFact]:
        """Innermost if/while whose span contains ``line`` (not at its test)."""
        best: Optional[ConditionFact] = None
        for cond in self.conditions:
            if cond.file != file or cond.line == line:
                continue
            if cond.scope_start < line <= cond.scope_end:
                if best is None or (
                    cond.scope_end - cond.scope_start
                    < best.scope_end - best.scope_start
                ):
                    best = cond
        return best

    def prior_conditions(
        self, file: str, line: int, function: str
    ) -> list[ConditionFact]:
        """All branch dominators of a location.

        The innermost enclosing if/while, plus every *loop* in the same
        function that completes before the location: a statement after a
        ``while`` only executes once the loop condition turns false, so
        the loop condition dominates it (the Figure 1 ``waitForSafePoint``
        shape — the log after the wait loop depends on the loop's exit).
        """
        priors: list[ConditionFact] = []
        enclosing = self.enclosing_condition(file, line)
        if enclosing is not None:
            priors.append(enclosing)
        for cond in self.conditions:
            if (
                cond.is_loop
                and cond.file == file
                and cond.function == function
                and cond.scope_end < line
            ):
                priors.append(cond)
        return priors

    def enclosing_trys(self, qualname: str, line: int) -> list[TryFact]:
        """Trys of the function whose body covers ``line``, innermost first."""
        covering = [
            try_fact
            for try_fact in self._trys_by_function.get(qualname, [])
            if try_fact.covers(line)
        ]
        covering.sort(key=lambda t: t.body_end - t.body_start)
        return covering

    def handler_at(self, file: str, line: int) -> Optional[HandlerFact]:
        """Innermost except-handler whose body contains ``line``."""
        best: Optional[HandlerFact] = None
        for try_fact in self.trys:
            if try_fact.file != file:
                continue
            for handler in try_fact.handlers:
                if handler.body_start <= line <= handler.body_end:
                    if best is None or (
                        handler.body_end - handler.body_start
                        < best.body_end - best.body_start
                    ):
                        best = handler
        return best

    def handler_by_line(self, file: str, line: int) -> Optional[HandlerFact]:
        for try_fact in self.trys:
            if try_fact.file != file:
                continue
            for handler in try_fact.handlers:
                if handler.line == line:
                    return handler
        return None

    # ---------------------------------------------------------------- exceptions

    def is_subtype(self, thrown: str, caught: str) -> bool:
        """Whether an exception named ``thrown`` is caught by type ``caught``.

        Resolves through both the simulator's exception hierarchy and the
        system's own exception class definitions.
        """
        if thrown == caught or caught in ("Exception", "BaseException"):
            return True
        if thrown in sim_errors.EXCEPTION_TYPES and caught in sim_errors.EXCEPTION_TYPES:
            return sim_errors.is_subtype(thrown, caught)
        # Walk the system-defined class hierarchy upward from ``thrown``.
        seen: set[str] = set()
        frontier = [thrown]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            if name == caught:
                return True
            if name in sim_errors.EXCEPTION_TYPES and caught in sim_errors.EXCEPTION_TYPES:
                if sim_errors.is_subtype(name, caught):
                    return True
            frontier.extend(self._class_bases.get(name, ()))
        return False

    def handler_catches(self, handler: HandlerFact, thrown: str) -> bool:
        return any(self.is_subtype(thrown, caught) for caught in handler.exceptions)

    # ---------------------------------------------------------------- templates

    def log_templates(self) -> list[LogTemplate]:
        return [
            LogTemplate(
                template_id=log.template_id,
                template=log.template,
                level=log.level,
                file=log.file,
                line=log.line,
                function=log.function,
            )
            for log in self.logs
        ]

    def template_matcher(self) -> TemplateMatcher:
        """The model's matcher, regexes compiled once (its message-key
        cache is a pure memo, so sharing it only warms it)."""
        return self.memo(
            TemplateMatcher, lambda: TemplateMatcher(self.log_templates())
        )

    def total_fault_candidates(self) -> int:
        """All static (site, exception) pairs in the system — Table 1 'Total'."""
        return sum(len(env_call.exception_types) for env_call in self.env_calls)


def analyze_package(
    package_name: str, addons: Iterable[str] = ()
) -> SystemModel:
    """Analyze every module of an importable package into a SystemModel.

    A package may declare ``ADDON_MODULES`` — optional components (extra
    daemons) that ship with the package but are only part of a deployment
    when its workload spawns them.  Those modules are excluded from the
    model unless named in ``addons``, so a case's static fault space
    covers exactly the code its deployment runs: baselines that sweep the
    whole model (FATE, random) are unaffected by add-ons that other cases
    deploy.
    """
    package = importlib.import_module(package_name)
    declared = frozenset(getattr(package, "ADDON_MODULES", ()))
    wanted = frozenset(addons)
    unknown = wanted - declared
    if unknown:
        raise ValueError(
            f"{package_name} does not declare addon module(s): "
            f"{', '.join(sorted(unknown))}"
        )
    skip = declared - wanted
    module_facts: list[ModuleFacts] = []
    paths = getattr(package, "__path__", None)
    if paths is None:
        facts = _facts_for_module(package_name)
        if facts is not None:
            module_facts.append(facts)
    else:
        for info in pkgutil.walk_packages(paths, prefix=package_name + "."):
            if not info.ispkg and info.name not in skip:
                facts = _facts_for_module(info.name)
                if facts is not None:
                    module_facts.append(facts)
    return SystemModel(module_facts)


#: module name -> (source sha256, extracted facts).  Repeated benchmark
#: runs re-analyze the same packages dozens of times; the hash key makes
#: the cache safe against on-disk edits between calls (a changed source
#: re-parses, an unchanged one is a dict lookup).
_FACTS_CACHE: dict[str, tuple[str, ModuleFacts]] = {}

#: Bumped when :class:`ModuleFacts` changes shape.
_FACTS_VERSION = 1


def clear_facts_cache() -> None:
    """Forget every memoised analysis product — module facts and what
    was derived per model — so the next analysis is a cold one (the
    ``facts/`` disk tier, if any, still serves unchanged sources)."""
    _FACTS_CACHE.clear()
    _MODEL_MEMOS.clear()


def _facts_for_module(module_name: str) -> Optional[ModuleFacts]:
    # The facts come from the source text: a module nothing imported yet
    # (a dogfood surface no workload runs) is located, not executed.
    module = sys.modules.get(module_name)
    if module is not None:
        file_path = getattr(module, "__file__", None)
    else:
        spec = importlib.util.find_spec(module_name)
        file_path = spec.origin if spec is not None and spec.has_location else None
    if file_path is None:
        # Extension modules and namespace members have no parseable
        # source; skip them so packages containing them still analyze.
        warnings.warn(
            f"module {module_name} has no source file; skipping static facts",
            stacklevel=2,
        )
        return None
    with open(file_path, encoding="utf-8") as handle:
        source = handle.read()
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    cached = _FACTS_CACHE.get(module_name)
    if cached is not None and cached[0] == digest:
        return cached[1]
    cache = runcache.active()
    tier = None if cache is None else cache.tier("facts")
    # Facts embed the file path and are only as good as the extractor
    # that made them: a record stamped otherwise is stale, and superseded
    # by the one appended after it.
    extractor = tier and runcache.source_digest(os.path.dirname(__file__))
    stamp = (_FACTS_VERSION, extractor, file_path, digest)

    def decode(data: bytes) -> Optional[ModuleFacts]:
        entry_stamp, facts = pickle.loads(data)
        return facts if entry_stamp == stamp else None

    facts = None if tier is None else tier.read(module_name, decode)
    if facts is None:
        facts = extract_module_facts(module_name, file_path, source)
        if tier is not None:
            tier.write(
                module_name,
                lambda: pickle.dumps((stamp, facts), pickle.HIGHEST_PROTOCOL),
            )
    _FACTS_CACHE[module_name] = (digest, facts)
    return facts
