//! Metric types and the typed Ganglia monitoring-tree model.
//!
//! The wide-area monitor "concerns itself only with a metric's type and
//! context: which host, and in which cluster it originated from" (paper
//! §1). This crate defines those types:
//!
//! * [`value::MetricValue`] / [`value::MetricType`] — the value lattice of
//!   the Ganglia DTD (`int8`..`uint32`, `float`, `double`, `string`,
//!   `timestamp`);
//! * [`slope::Slope`] — how a metric is expected to change, which drives
//!   both gmond's send scheduling and RRD archiving;
//! * [`definition`] — the ~30 built-in host metrics gmond collects, with
//!   their collection schedules and value thresholds, plus a registry for
//!   user-defined key-value metrics;
//! * [`model`] — the typed monitoring tree (`GRID` / `CLUSTER` / `HOST` /
//!   `METRIC`, and the summary forms `HOSTS` / `METRICS`), including the
//!   additive-reduction summaries of paper §3.2;
//! * [`stream`] — the document builder: Ganglia XML to the model through
//!   the pull parser's event stream, with no DOM ([`parse_document`]);
//! * [`codec`] — streaming conversion of the model back to Ganglia XML;
//! * [`atom`] — the intern table behind the model's [`atom::Atom`] name
//!   fields: the same few hundred strings repeat across every host and
//!   every round, so they are stored once and shared;
//! * [`delta`] — signed diffs between summary contributions
//!   ([`delta::SummaryDelta`]), the algebra behind the store's
//!   incremental root-summary maintenance;
//! * [`ingest`] — the delta-aware parse path: fingerprints each `<HOST>`
//!   subtree and reuses the previous round's `Arc`'d nodes and summary
//!   contributions when the bytes did not change.

pub mod atom;
pub mod codec;
pub mod definition;
pub mod delta;
pub mod ingest;
pub mod model;
pub mod slope;
pub mod stream;
pub mod value;

pub use atom::{intern_stats, Atom, InternStats};
pub use codec::{
    render_document_into, write_document, write_document_hinted, ParseError, RenderHint,
};
pub use definition::{builtin_metrics, MetricDefinition, MetricRegistry};
pub use delta::{MetricDelta, SummaryDelta};
pub use ingest::{fingerprint64, IngestStats, Ingested, Ingester};
pub use model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricEntry,
    MetricSummary, SummaryBody,
};
pub use slope::Slope;
pub use stream::parse_document;
pub use value::{MetricType, MetricValue};
