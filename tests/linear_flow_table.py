"""Reference flow table: a sorted list scanned front to back.

This is the straightforward implementation that ``sdnmob.flow_engine.FlowTable``
replaced with an exact-match index. The tests drive both through the same
scripts and require identical answers.
"""

from __future__ import annotations

import bisect
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from sdnmob.flow_engine import (
    DEFAULT_PRIORITY,
    FlowMatch,
    FlowRule,
    InstallRejected,
    forward,
)
from sdnmob.packet import Packet


def _sort_key(rule: FlowRule) -> Tuple[int, int]:
    return (-rule.priority, rule.install_seq)


class LinearFlowTable:
    """Rules kept sorted by (priority desc, install_seq asc); the first hit
    of a linear scan is the winner."""

    def __init__(self) -> None:
        self._rules: List[FlowRule] = []
        self._next_seq = 1
        self._default: Optional[FlowRule] = None

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> Sequence[FlowRule]:
        return tuple(self._rules)

    @property
    def default_rule(self) -> Optional[FlowRule]:
        return self._default

    def install_default(self, out_port: str, now: int = 0) -> FlowRule:
        rule = FlowRule(
            match=FlowMatch(),
            actions=(forward(out_port),),
            priority=DEFAULT_PRIORITY,
            idle_timeout=None,
            last_hit=now,
        )
        if self._default is not None:
            self._rules.remove(self._default)
        rule.install_seq = self._next_seq
        self._next_seq += 1
        bisect.insort(self._rules, rule, key=_sort_key)
        self._default = rule
        return rule

    def install(self, rule: FlowRule, now: int) -> FlowRule:
        if rule.match.is_wildcard:
            raise InstallRejected("all-wildcard match is reserved for the default rule")
        if rule.priority <= DEFAULT_PRIORITY:
            raise InstallRejected(
                f"translation rules need priority > {DEFAULT_PRIORITY}, got {rule.priority}"
            )
        existing = self.find(rule.match, rule.priority)
        if existing is not None:
            self._rules.remove(existing)
        installed = replace(
            rule,
            actions=rule.actions,
            install_seq=self._next_seq,
            last_hit=now,
        )
        self._next_seq += 1
        bisect.insort(self._rules, installed, key=_sort_key)
        return installed

    def find(self, match: FlowMatch, priority: int) -> Optional[FlowRule]:
        for rule in self._rules:
            if rule.match == match and rule.priority == priority:
                return rule
        return None

    def touch(self, match: FlowMatch, priority: int, now: int) -> bool:
        rule = self.find(match, priority)
        if rule is None:
            return False
        rule.last_hit = max(rule.last_hit, now)
        return True

    def match_packet(self, pkt: Packet, now: int) -> Optional[FlowRule]:
        for rule in self._rules:
            if rule.match.matches(pkt):
                rule.last_hit = now
                return rule
        return None

    def expire(self, now: int) -> List[FlowRule]:
        removed = [
            r for r in self._rules
            if r.idle_timeout is not None and now - r.last_hit > r.idle_timeout
        ]
        for rule in removed:
            self._rules.remove(rule)
        return removed
