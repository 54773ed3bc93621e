"""SDN-managed L3 mobility at packet level.

A mobile client roams between coverage zones whose DHCP hands out different
addresses; a central controller, fed by per-zone tap servers, keeps a table
of (uid, real IP, virtual permanent IP) triplets and programs proactive
source/destination translation flows on the single SDN-aware core router, so
the external server only ever sees one stable virtual address. A Proxy
Mobile IPv6-style tunneling baseline runs over the same topology for
comparison.
"""

from .addressing import AddressError, AddressPool, PoolExhausted, Uid
from .controller import (
    ControlAction,
    EvictClient,
    HostReport,
    InstallFlows,
    MobilityController,
    MobilityRecord,
    MobilityServiceTable,
    RefreshFlows,
    ReportRejected,
    WireFormatError,
    allocate_vpip,
)
from .flow_engine import (
    FlowMatch,
    FlowRule,
    FlowTable,
    Forwarded,
    PacketIn,
    SdnSwitch,
    apply_actions,
    dnat_rule,
    snat_rule,
)
from .packet import INNER_HEADER_BYTES, Packet, PacketKind
from .tap_server import TapFilter, TapServer, TimeBufferEntry, ZoneConfig
from .sim import (
    Mode,
    MoveClient,
    Network,
    ScenarioError,
    StartBulkTransfer,
    StartEcho,
    Stop,
    TopologyConfig,
    TunnelConfig,
    build_topology,
    compare_runs,
    run_pmip_baseline,
    run_scenario,
)

__version__ = "0.1.0"
