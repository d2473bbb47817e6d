//! # pypm-graph — the tensor computation-graph substrate
//!
//! DLCB (the paper's GPU compiler backend) ingests tensor computation
//! graphs from AI-compiler frontends and rewrites them with PyPM patterns
//! (§2.4, §4.1). This crate is that substrate:
//!
//! * [`Graph`] — a DAG IR of single-output operator nodes with tensor
//!   metadata and destructive replacement,
//! * [`OpRegistry`] / [`StdOps`] — the operator vocabulary ("a (large)
//!   subset of PyTorch operators") with operator classes and
//!   shape-inference rules,
//! * [`TermView`] — the abstraction of subgraphs as CorePyPM syntax trees,
//!   including the tensor attribute interpretation (`rank`, `eltType`,
//!   `numel`, `dim0..3`, `op_class`) that guards evaluate,
//! * [`TensorMeta`]/[`DType`] — tensor metadata, 8 bytes a node: a
//!   dtype and a [`ShapeId`] into the graph's [`ShapeTable`], which holds
//!   each distinct list of extents once.
//!
//! Models built by `pypm-models` live in this IR; the rewrite pass in
//! `pypm-engine` matches CorePyPM patterns against term views of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod ops;
pub mod tensor;
pub mod termview;

pub use graph::{Graph, GraphError, Node, NodeId, NodeKind, TopoWalk};
pub use ops::{Activation, OpClass, OpInfo, OpRegistry, ShapeError, ShapeRule, StdOps};
pub use tensor::{DType, ShapeId, ShapeTable, TensorMeta};
pub use termview::{GraphAttrInterp, TensorAttrs, TermView};
