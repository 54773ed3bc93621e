"""Reference NAT table: a list in install order scanned front to back.

This is the straightforward implementation that ``sdnmob.flow_engine.FlowTable``
replaced with one dict per rule shape. The tests drive both through the same
scripts and require identical answers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from sdnmob.flow_engine import FlowMatch, FlowRule, InstallRejected
from sdnmob.packet import Packet


def _matches(match: FlowMatch, pkt: Packet) -> bool:
    return ((match.src_ip is None or pkt.src_ip == match.src_ip)
            and (match.dst_ip is None or pkt.dst_ip == match.dst_ip))


class LinearFlowTable:
    """Rules kept in install order, the default last; the first hit of a
    linear scan is the winner."""

    def __init__(self) -> None:
        self._rules: List[FlowRule] = []
        self._next_seq = 1
        self._default: Optional[FlowRule] = None

    def __len__(self) -> int:
        return len(self._rules) + (self._default is not None)

    @property
    def rules(self) -> Sequence[FlowRule]:
        out = list(self._rules)
        if self._default is not None:
            out.append(self._default)
        return tuple(sorted(out, key=lambda r: r.install_seq))

    @property
    def default_rule(self) -> Optional[FlowRule]:
        return self._default

    def install_default(self, out_port: str, now: int = 0) -> FlowRule:
        self._default = FlowRule(FlowMatch(), None, out_port, None, now, self._next_seq)
        self._next_seq += 1
        return self._default

    def install(self, rule: FlowRule, now: int) -> FlowRule:
        if (rule.match.src_ip is None) == (rule.match.dst_ip is None):
            raise InstallRejected("a rule matches exactly one of source or destination")
        existing = self.find(rule.match)
        if existing is not None:
            self._rules.remove(existing)
        installed = replace(rule, install_seq=self._next_seq, last_hit=now)
        self._next_seq += 1
        self._rules.append(installed)
        return installed

    def find(self, match: FlowMatch) -> Optional[FlowRule]:
        for rule in self._rules:
            if rule.match == match:
                return rule
        return None

    def touch(self, match: FlowMatch, now: int) -> bool:
        rule = self.find(match)
        if rule is None:
            return False
        rule.last_hit = max(rule.last_hit, now)
        return True

    def match_packet(self, pkt: Packet, now: int) -> Optional[FlowRule]:
        for rule in [*self._rules, self._default]:
            if rule is not None and _matches(rule.match, pkt):
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
