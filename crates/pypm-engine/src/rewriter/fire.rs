//! Which rule fires, and what firing it does: the first rule whose
//! guard holds and whose replacement is not the matched subgraph again
//! is built, spliced in where the root stood and logged (the commit),
//! and the view is repaired around it.

use super::{Driver, RewriteError};
use crate::pass::{Firing, RejectReason, Rejection};
use pypm_core::{Attr, Symbol, TermId, Witness};
use pypm_dsl::Rhs;
use pypm_graph::{NodeId, TensorMeta};

impl Driver<'_> {
    /// Pattern `pi` matched at `node`: "PyPM runs each of the
    /// corresponding rules one by one … The first rule whose assertions
    /// pass is fired." Commits the first rule whose guard holds and
    /// returns its firing; or records why no rule fired and returns
    /// `None`.
    pub(super) fn on_match(
        &mut self,
        node: NodeId,
        pi: usize,
        witness: &Witness,
    ) -> Result<Option<Firing>, RewriteError> {
        self.stats.matches_found += 1;
        let mut saw_identity = false;
        let pass = self.pass;
        for (ri, rule) in pass.rules.patterns[pi].rules.iter().enumerate() {
            let holds = rule
                .guard
                .eval(
                    &witness.theta,
                    &self.session.terms,
                    &self.view.attrs(self.graph),
                )
                .holds();
            if !holds {
                continue;
            }
            // Identity rewrites (replacement structurally equal to the
            // matched subgraph, e.g. collapsing a chain of one RELU to
            // one RELU) must not fire, or the pass would never reach a
            // fixpoint. The check folds the RHS template to a *term*
            // before any graph node is built: a rejected rule therefore
            // allocates nothing, which keeps node-id allocation — and so
            // the byte-identity of SweepPolicy::Incremental with
            // RestartOnRewrite — independent of how often the scan
            // revisits the rejected candidate.
            if Some(self.term_of_rhs(&rule.rhs, witness)?) == self.view.term_of(node) {
                saw_identity = true;
                continue;
            }
            return self.commit(node, (pi, ri), witness).map(Some);
        }
        self.log.reject(Rejection {
            sweep: self.stats.sweeps,
            pattern: pi,
            node,
            reason: if saw_identity {
                RejectReason::IdentityReplacement
            } else {
                RejectReason::GuardsFailed
            },
        });
        Ok(None)
    }

    /// Fires rule `ri` of pattern `pi` at `node`: builds its
    /// replacement, splices it in where `node` stood, collects what only
    /// `node` kept alive, and logs the firing.
    fn commit(
        &mut self,
        node: NodeId,
        (pi, ri): (usize, usize),
        witness: &Witness,
    ) -> Result<Firing, RewriteError> {
        let pass = self.pass;
        let rhs = &pass.rules.patterns[pi].rules[ri].rhs;
        let alloc_mark = self.graph.allocated_count();
        let root_meta = self.graph.node(node).meta;
        let replacement = self.instantiate(node, rhs, witness, Some(root_meta))?;
        self.graph
            .replace_traced(node, replacement, &mut self.rewired)
            .map_err(|e| RewriteError::BuildFailed {
                reason: e.to_string(),
            })?;
        self.stats.rewrites_fired += 1;
        let created = alloc_mark..self.graph.allocated_count();
        // The root lost its last reader; what only it kept alive goes
        // with it, straight into the log.
        let graph = &mut *self.graph;
        let entry = self
            .log
            .fire(self.stats.sweeps, pi, ri, node, created, |freed| {
                graph.collect(node, freed);
            });
        debug_assert_eq!(self.graph.validate(), Ok(()));
        Ok(entry)
    }

    /// Repairs the view's bookkeeping after a fired rewrite: the
    /// rewired users, the freshly allocated replacement nodes, and the
    /// collected dead nodes (as the log recorded `fired`) seed the patch
    /// (the dead ids let the view drop them without scanning for
    /// liveness). The patch only *marks* the cone stale — terms
    /// recompute lazily at the next visit, and the worklist's
    /// candidates are the nodes the view owes a term.
    pub(super) fn repair_view(&mut self, fired: &Firing) {
        let seed = self.rewired.iter().chain(self.log.created(fired));
        let seed = seed.chain(self.log.collected(fired)).copied();
        self.view.patch(self.graph, seed);
        self.stats.view_patches += 1;
    }

    /// What one RHS template node denotes under `witness` — the step
    /// every RHS walker shares, and the one place the two unbound-variable
    /// errors are raised.
    fn resolve<'r>(&self, rhs: &'r Rhs, witness: &Witness) -> Result<Resolved<'r>, RewriteError> {
        match rhs {
            Rhs::Var(x) => witness.theta.get(*x).map(Resolved::Bound).ok_or_else(|| {
                RewriteError::UnboundRhsVar {
                    var: self.session.syms.var_name(*x).to_owned(),
                }
            }),
            Rhs::App { op, args, attrs } => Ok(Resolved::Apply(*op, args, attrs)),
            Rhs::FunApp(fv, args) => match witness.phi.get(*fv) {
                Some(op) => Ok(Resolved::Apply(op, args, &[])),
                None => Err(RewriteError::UnboundRhsFunVar {
                    fun_var: self.session.syms.fun_var_name(*fv).to_owned(),
                }),
            },
        }
    }

    /// The term the instantiated RHS template would denote, folded
    /// structurally through the hash-consed term store *without*
    /// touching the graph — exactly the term [`Driver::instantiate`]
    /// would produce nodes for, attributes included. Used by the
    /// identity check so that rejected rules allocate no graph nodes.
    fn term_of_rhs(&mut self, rhs: &Rhs, witness: &Witness) -> Result<TermId, RewriteError> {
        match self.resolve(rhs, witness)? {
            Resolved::Bound(t) => Ok(t),
            Resolved::Apply(op, args, attrs) => {
                let base = self.rhs_terms.len();
                for a in args {
                    let t = self.term_of_rhs(a, witness)?;
                    self.rhs_terms.push(t);
                }
                let args = &self.rhs_terms[base..];
                let t = self.session.terms.app_with_attrs(op, args, attrs);
                self.rhs_terms.truncate(base);
                Ok(t)
            }
        }
    }

    /// Builds the RHS template into the graph, reusing matched subgraphs
    /// for variables: a variable names the node below the matched
    /// `root` that views as its bound term ([`pypm_graph::TermView::node_below`]),
    /// a piece of the subgraph the pattern matched (§2.4) even where a
    /// twin elsewhere in the graph views as the same term. Every
    /// pre-existing node a replacement reads is therefore in the root's
    /// input cone. The RHS root passes `Some(root_meta)`: a rewrite
    /// replaces a subgraph by an equivalent one, so the replacement's
    /// output metadata is the matched root's metadata verbatim (shape
    /// inference cannot always recover it — e.g. the fused ConvBiasAct
    /// kernel carries its stride internally). Every node below the root
    /// passes `None` and has its metadata inferred.
    fn instantiate(
        &mut self,
        root: NodeId,
        rhs: &Rhs,
        witness: &Witness,
        root_meta: Option<TensorMeta>,
    ) -> Result<NodeId, RewriteError> {
        let (op, args, attrs) = match self.resolve(rhs, witness)? {
            Resolved::Bound(t) => {
                return self
                    .view
                    .node_below(self.graph, root, t)
                    .ok_or(RewriteError::NoNodeForTerm)
            }
            Resolved::Apply(op, args, attrs) => (op, args, attrs),
        };
        let base = self.rhs_inputs.len();
        for a in args {
            let input = self.instantiate(root, a, witness, None)?;
            self.rhs_inputs.push(input);
        }
        let inputs = &self.rhs_inputs[base..];
        let built = match root_meta {
            Some(meta) => self.graph.op_with_meta(op, inputs, attrs, meta),
            None => self.graph.op(
                &mut self.session.syms,
                &self.session.registry,
                op,
                inputs,
                attrs,
            ),
        };
        self.rhs_inputs.truncate(base);
        built.map_err(|e| RewriteError::BuildFailed {
            reason: e.to_string(),
        })
    }
}

/// An RHS template node resolved against a witness.
enum Resolved<'r> {
    /// A variable: the matched term bound to it.
    Bound(TermId),
    /// An application — of a literal operator, or of the operator a
    /// function variable matched (which carries no attributes):
    /// operator, argument templates, node attributes.
    Apply(Symbol, &'r [Rhs], &'r [(Attr, i64)]),
}
