//! Structured diagnostics shared by every dc-check pass.

use std::fmt;

/// The class of defect a diagnostic reports. Hard errors mean the step
/// silently miscomputed or misused memory; lints (see
/// [`Defect::is_warning`]) are legal but almost certainly unintended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// A dropout mask whose kept entries are not one uniform scale `≥ 1`.
    BadDropoutMask,
    /// A backward root minted by a different tape.
    CrossTapeVar,
    /// A parameter leaf the backward root never reads — it will receive
    /// zero gradient and silently never train.
    DeadParameter,
    /// A non-leaf node computed before the root but feeding nothing.
    UnusedNode,
    /// `Tape::backward` ran more than once on the same tape; each run
    /// replaces the gradients of the previous one.
    DoubleBackward,
    /// A NaN or ±Inf in a node's forward value.
    NonFiniteValue,
    /// A NaN or ±Inf in a node's gradient.
    NonFiniteGrad,
    /// The `DC_CHECK=1` poison pattern (a recycled buffer's fill) was
    /// observed in live data: a buffer was read after it returned to the
    /// pool.
    UseAfterRecycle,
    /// A buffer returned to the pool twice (or a foreign buffer
    /// recycled), detected by the pool's generation-tagged handles.
    DoubleRecycle,
}

impl Defect {
    /// Lints are advisory; everything else is a hard error.
    pub fn is_warning(self) -> bool {
        matches!(
            self,
            Defect::DeadParameter | Defect::UnusedNode | Defect::DoubleBackward
        )
    }
}

/// One diagnostic, anchored to a node of the analyzed graph.
#[derive(Clone, Debug)]
pub struct GraphError {
    /// Arena index of the offending node.
    pub node: usize,
    /// Name of the op that produced the node (see [`dc_tensor::op_name`]).
    pub op: &'static str,
    /// Defect class.
    pub defect: Defect,
    /// What the op's contract required.
    pub expected: String,
    /// What the graph actually contains.
    pub got: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at node {} ({}): expected {}, got {}",
            match self.defect {
                Defect::BadDropoutMask => "bad dropout mask",
                Defect::CrossTapeVar => "cross-tape Var",
                Defect::DeadParameter => "dead parameter",
                Defect::UnusedNode => "unused node",
                Defect::DoubleBackward => "double backward",
                Defect::NonFiniteValue => "non-finite value",
                Defect::NonFiniteGrad => "non-finite gradient",
                Defect::UseAfterRecycle => "use after recycle",
                Defect::DoubleRecycle => "double recycle",
            },
            self.node,
            self.op,
            self.expected,
            self.got
        )
    }
}

impl std::error::Error for GraphError {}

/// Render a batch of diagnostics, one per line, for panic messages.
pub fn render(errors: &[GraphError]) -> String {
    errors
        .iter()
        .map(|e| format!("  - {e}"))
        .collect::<Vec<_>>()
        .join("\n")
}
