"""Discrete-event virtualization/cloud simulator.

The substrate standing in for the paper's Eucalyptus cloud, XEN/KVM
hosts and Amazon EC2 instances: a deterministic event engine, fluid
shared links with weighted fair sharing, platform profiles with split
VM-view/host-view CPU accounting, disk models (including the XEN
write-back cache artifact), fluctuation processes, and the Section IV
transfer scenario runner.
"""

from .analysis import level_occupancy, rate_statistics
from .calibration import (
    CODEC_MODEL,
    CPU_LOSS_PER_BG_FLOW,
    FOREGROUND_WEIGHT,
    LINK_APP_CAPACITY,
    CodecPoint,
    CodecSimModel,
    cpu_available,
)
from .cpu import CATEGORIES, CostVector, CpuLedger, DualLedger, utilization
from .disk import CachedDisk, PlainDisk
from .engine import Environment, Event, Process, SimulationError, Timeout
from .filetransfer import FileWriteSim, run_file_write_scenario
from .fleet import (
    FleetArrivalSpec,
    FleetFlowOutcome,
    FleetFlowSpec,
    FleetResult,
    SimFleetController,
    run_fleet_scenario,
)
from .fluctuation import ConstantCapacity, FluctuationModel, GaussianJitter, MarkovOnOff
from .host import PhysicalHost
from .hypervisor import (
    EVALUATION_PROFILE,
    PROFILES,
    DiskCacheParams,
    IoCostPair,
    VirtProfile,
    build_profiles,
)
from .link import Flow, SharedLink
from .metrics import (
    CpuUtilizationSampler,
    ThroughputSample,
    ThroughputSampler,
    UtilizationSample,
)
from .rng import RngStreams
from .scenario import (
    PAPER_TOTAL_BYTES,
    ScenarioConfig,
    make_dynamic_factory,
    make_static_factory,
    run_transfer_scenario,
)
from .transfer import BackgroundTraffic, TransferEpoch, TransferResult, TransferSim
from .vm import VirtualMachine
from .workload import (
    OPERATIONS,
    SoftmaxArrivalProcess,
    WorkloadReport,
    run_file_read,
    run_file_write,
    run_net_recv,
    run_net_send,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "RngStreams",
    "SharedLink",
    "Flow",
    "FluctuationModel",
    "ConstantCapacity",
    "GaussianJitter",
    "MarkovOnOff",
    "CATEGORIES",
    "CostVector",
    "CpuLedger",
    "DualLedger",
    "utilization",
    "VirtProfile",
    "IoCostPair",
    "DiskCacheParams",
    "PROFILES",
    "EVALUATION_PROFILE",
    "build_profiles",
    "PlainDisk",
    "CachedDisk",
    "PhysicalHost",
    "VirtualMachine",
    "ThroughputSampler",
    "ThroughputSample",
    "CpuUtilizationSampler",
    "UtilizationSample",
    "CodecPoint",
    "CodecSimModel",
    "CODEC_MODEL",
    "LINK_APP_CAPACITY",
    "FOREGROUND_WEIGHT",
    "CPU_LOSS_PER_BG_FLOW",
    "cpu_available",
    "TransferSim",
    "TransferResult",
    "TransferEpoch",
    "BackgroundTraffic",
    "FileWriteSim",
    "run_file_write_scenario",
    "FleetFlowSpec",
    "FleetArrivalSpec",
    "FleetFlowOutcome",
    "FleetResult",
    "SimFleetController",
    "run_fleet_scenario",
    "level_occupancy",
    "rate_statistics",
    "ScenarioConfig",
    "run_transfer_scenario",
    "make_static_factory",
    "make_dynamic_factory",
    "PAPER_TOTAL_BYTES",
    "WorkloadReport",
    "run_net_send",
    "run_net_recv",
    "run_file_write",
    "run_file_read",
    "OPERATIONS",
    "SoftmaxArrivalProcess",
]
