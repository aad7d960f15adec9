//! Fragmented serverless GPU cluster model for the FlexPipe reproduction.
//!
//! The paper's environment — a multi-tenant serverless cluster whose GPUs
//! are scattered, oversubscribed and ephemerally available (§2.2, §3.1) —
//! is reproduced here in these pieces:
//!
//! - [`topology`] — racks, servers, GPUs and interconnect parameters, with
//!   constructors for the paper's 42-server/82-GPU testbed and the two
//!   Alibaba measurement clusters of Table 1;
//! - [`state`] — dynamic memory occupancy with leases and the
//!   "never over capacity" invariant;
//! - [`fragmentation`] — the calibrated background-tenant process that
//!   recreates Table 1's utilisation distributions and Fig. 2's scattered
//!   availability;
//! - [`gpu_set`] — the dense GPU-id set the serving engine keeps its
//!   in-use devices in;
//! - [`alloc`] — dual-tier (always-on + elastic) provisioning with
//!   multi-second cold allocation delays and reclaim windows;
//! - [`transfer`] — the §8 hierarchical transfer cost model (NVLink / PCIe /
//!   RDMA / sendfile / storage).

#![warn(missing_docs)]

pub mod alloc;
pub mod fragmentation;
pub mod gpu_set;
pub mod load_index;
pub mod state;
pub mod topology;
pub mod transfer;

pub use alloc::{first_fit, AcquireKind, Acquisition, Provisioner, TierConfig};
pub use fragmentation::{BackgroundProfile, BackgroundTenants, FragmentationStats};
pub use gpu_set::GpuSet;
pub use load_index::ServerLoadIndex;
pub use state::{AllocError, Cluster, GpuLoad, Lease, LeaseId, LeaseTarget};
pub use topology::{
    ClusterSpec, GpuId, GpuInfo, GpuSpec, LinkSpec, RackId, ServerId, ServerSpec, Topology,
};
pub use transfer::{Endpoint, Route, TransferEngine};
