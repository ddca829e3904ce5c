//! The HARP model (§3 of the paper).
//!
//! Pipeline per instance:
//!
//! 1. **GCN edge embeddings** (§3.3): node features (adjacent capacity,
//!    degree) run through a small GCN stack; per-layer node embeddings are
//!    concatenated (Fig 14). The embedding of edge `(i, j)` is the *sum* of
//!    the two node embeddings concatenated with the edge capacity — so
//!    `h_ij == h_ji` exactly when `C_ij == C_ji` — projected to the model
//!    width.
//! 2. **SETTRANS tunnel embeddings** (§3.4): each tunnel is the *set* of
//!    its edges' embeddings plus a learned CLS vector; a transformer
//!    encoder **without positional encodings** produces edge-conditioned
//!    ("edge-tunnel") embeddings and the CLS row is the tunnel embedding.
//!    Because of the two symmetries above, a tunnel and its reverse on
//!    equal capacities are one set of input rows: the encoder runs once per
//!    distinct set ([`Instance::buckets`]) and both read its rows, exact in
//!    real arithmetic and a rounding-level change in `f32` for the one read
//!    backwards (attention sums its keys in the other order).
//! 3. **MLP1 initial splits**: tunnel embedding ⊕ demand → unnormalized
//!    split logit `u`, the same MLP applied to every tunnel.
//! 4. **RAU refinement** (§3.5): `rau_iters` times, compute per-flow
//!    softmax splits, link utilizations, the network MLU and each tunnel's
//!    bottleneck link; feed (bottleneck edge-tunnel embedding, bottleneck
//!    utilization, MLU, demand) to the shared RAU MLP, whose output is
//!    *added* to the logits. A final softmax yields the splits.
//!
//! `rau_iters = 0` is the paper's HARP-NoRAU ablation.

use std::sync::Arc;

use harp_nn::{Activation, GcnConv, Linear, Mlp, TransformerEncoder};
use harp_tensor::{ParamId, ParamStore, Tape, Var};
use rand::Rng;

use crate::loss::utilization;
use crate::{Instance, SplitModel};

/// Architecture hyperparameters (defaults follow the paper's small-model
/// regime — the AnonNet model selected in validation has ~21K parameters).
#[derive(Clone, Copy, Debug)]
pub struct HarpConfig {
    /// GCN layers (paper searches 2, 3, 6).
    pub gnn_layers: usize,
    /// GCN hidden width per layer.
    pub gnn_hidden: usize,
    /// Model width r (edge/tunnel embedding dim; must be divisible by
    /// `heads`).
    pub d_model: usize,
    /// SETTRANS encoder layers (paper searches 2, 3).
    pub settrans_layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// SETTRANS feed-forward width.
    pub d_ff: usize,
    /// Hidden width of MLP1 and the RAU MLP.
    pub mlp_hidden: usize,
    /// RAU recursions (paper searches 3, 7, 14; 0 = HARP-NoRAU).
    pub rau_iters: usize,
}

impl Default for HarpConfig {
    fn default() -> Self {
        HarpConfig {
            gnn_layers: 2,
            gnn_hidden: 8,
            d_model: 16,
            settrans_layers: 2,
            heads: 2,
            d_ff: 32,
            mlp_hidden: 32,
            rau_iters: 7,
        }
    }
}

/// Encoder input rows per tile of [`SplitModel::precompute_epoch`]: what
/// the two encoder layers record for that many rows (~2.5 KB each) is about
/// the 1.25 MB of a core's L2, so a tile's layers read their inputs from
/// cache. Measured flat from 256 to 2 048 rows (CHANGES.md, PR 20).
const L2_TILE_ROWS: usize = 512;

/// The HARP model. Holds parameter handles into a [`ParamStore`]; the same
/// four modules (GNN, SETTRANS, MLP1, RAU) are shared across all edges,
/// tunnels and recursions.
#[derive(Clone, Debug)]
pub struct Harp {
    cfg: HarpConfig,
    gnn: Vec<GcnConv>,
    edge_proj: Linear,
    settrans: TransformerEncoder,
    mlp1: Mlp,
    rau: Mlp,
    cls: ParamId,
}

impl Harp {
    /// Construct with freshly-initialized parameters registered in `store`.
    pub fn new<R: Rng>(store: &mut ParamStore, rng: &mut R, cfg: HarpConfig) -> Self {
        assert!(cfg.gnn_layers >= 1 && cfg.d_model.is_multiple_of(cfg.heads));
        let mut gnn = Vec::with_capacity(cfg.gnn_layers);
        let mut in_dim = 2;
        for l in 0..cfg.gnn_layers {
            gnn.push(GcnConv::new(
                store,
                rng,
                &format!("harp.gnn.{l}"),
                in_dim,
                cfg.gnn_hidden,
                Activation::Tanh,
            ));
            in_dim = cfg.gnn_hidden;
        }
        // node embedding = concat of all layer outputs; edge embedding =
        // sum of endpoints' node embeddings ⊕ capacity, projected to r.
        let node_dim = cfg.gnn_hidden * cfg.gnn_layers;
        let edge_proj = Linear::new(
            store,
            rng,
            "harp.edge_proj",
            node_dim + 1,
            cfg.d_model,
            true,
        );
        let settrans = TransformerEncoder::new(
            store,
            rng,
            "harp.settrans",
            cfg.settrans_layers,
            cfg.d_model,
            cfg.heads,
            cfg.d_ff,
        );
        let mlp1 = Mlp::new(
            store,
            rng,
            "harp.mlp1",
            &[cfg.d_model + 1, cfg.mlp_hidden, 1],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
        );
        let rau = Mlp::new(
            store,
            rng,
            "harp.rau",
            &[cfg.d_model + 4, cfg.mlp_hidden, 1],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
        );
        let cls = store.register(
            "harp.cls",
            vec![1, cfg.d_model],
            harp_nn::xavier_vec(rng, 1, cfg.d_model),
        );
        Harp {
            cfg,
            gnn,
            edge_proj,
            settrans,
            mlp1,
            rau,
            cls,
        }
    }

    /// The configured hyperparameters.
    pub fn config(&self) -> HarpConfig {
        self.cfg
    }

    /// A view of the same trained parameters running `n` RAU recursions.
    ///
    /// The RAU is a *shared-parameter* fixed-point improver, so inference
    /// may iterate more (or less) than training did — the alignment
    /// property §3.5 leans on. Useful for the RAU-depth ablation.
    pub fn with_rau_iters(&self, n: usize) -> Harp {
        let mut m = self.clone();
        m.cfg.rau_iters = n;
        m
    }

    /// Edge embeddings `[E, d_model]` (stage 1).
    fn edge_embeddings(&self, t: &mut Tape, s: &ParamStore, inst: &Instance) -> Var {
        let adj = t.constant_slice(vec![inst.num_nodes, inst.num_nodes], &inst.adj_norm);
        let mut x = t.constant_slice(vec![inst.num_nodes, 2], &inst.node_feats);
        let mut layer_outs = Vec::with_capacity(self.gnn.len());
        for layer in &self.gnn {
            x = layer.forward(t, s, adj, x);
            layer_outs.push(x);
        }
        let node_emb = if layer_outs.len() == 1 {
            layer_outs[0]
        } else {
            t.concat_cols(&layer_outs)
        };
        let src_emb = t.gather_rows(node_emb, inst.edge_src.clone());
        let dst_emb = t.gather_rows(node_emb, inst.edge_dst.clone());
        let sum = t.add(src_emb, dst_emb);
        let caps = t.constant_slice(vec![inst.num_edges, 1], &inst.edge_caps);
        let with_cap = t.concat_cols(&[sum, caps]);
        self.edge_proj.forward(t, s, with_cap)
    }

    /// The set transformer's input rows, `[1 + E, d_model]`: row 0 is the
    /// CLS vector, row `1 + e` edge `e`'s embedding.
    fn encoder_input(&self, t: &mut Tape, s: &ParamStore, edge_emb: Var) -> Var {
        let cls = t.param(s, self.cls);
        t.concat_rows(&[cls, edge_emb])
    }

    /// SETTRANS over whole sequences of `width` rows of `input`, listed row
    /// by row in `seq_index`: `[seq_index.len(), d_model]`, one output row
    /// per input row. Attention stays inside a sequence and every other
    /// encoder op inside a row, so the rows of any run of sequences are
    /// bitwise what they are when the run is encoded as part of a longer
    /// one — a bucket ([`Self::tunnel_table`]) or a tile of one
    /// ([`Self::encode_epoch`]). For the same reason the first layer's
    /// projections may come in already computed for every row of `input`
    /// (`first`, from [`TransformerEncoder::project_first`]), to be
    /// gathered like the input rows instead of recomputed per sequence.
    fn encode_rows(
        &self,
        t: &mut Tape,
        s: &ParamStore,
        input: Var,
        first: Option<&[[Var; 3]]>,
        seq_index: Arc<Vec<usize>>,
        width: usize,
    ) -> Var {
        let rows = seq_index.len();
        let gather = |t: &mut Tape, v: Var, cols: usize| {
            let g = t.gather_rows(v, seq_index.clone());
            t.reshape(g, vec![rows / width, width, cols])
        };
        let seqs3 = gather(t, input, self.cfg.d_model);
        let out = match first {
            None => self.settrans.forward(t, s, seqs3, None),
            Some(first) => {
                let head_dim = self.cfg.d_model / self.cfg.heads;
                let first: Vec<[Var; 3]> = first
                    .iter()
                    .map(|qkv| qkv.map(|p| gather(t, p, head_dim)))
                    .collect();
                self.settrans.forward_projected(t, s, seqs3, &first, None)
            }
        };
        t.reshape(out, vec![rows, self.cfg.d_model])
    }

    /// Stages 1–2 on the tape: GCN edge embeddings, then the table of
    /// [`Self::tunnel_table`].
    fn encode_table(&self, t: &mut Tape, s: &ParamStore, inst: &Instance) -> Var {
        let edge_emb = {
            let _gcn = harp_obs::span("harp.gcn");
            self.edge_embeddings(t, s, inst)
        };
        let _st = harp_obs::span("harp.settrans");
        self.tunnel_table(t, s, inst, edge_emb)
    }

    /// Stage 2: SETTRANS over each length bucket's unpadded sequences.
    /// Returns the packed `[table_rows, d_model]` edge-tunnel embedding
    /// table (buckets back to back; see [`Instance::buckets`]). A tunnel
    /// that shares its representative's rows gathers them by `cls_row` and
    /// `pair_row`, so its gradient lands on them too. Every value
    /// stays on the tape: this is the route the backward pass walks.
    fn tunnel_table(&self, t: &mut Tape, s: &ParamStore, inst: &Instance, edge_emb: Var) -> Var {
        let input = self.encoder_input(t, s, edge_emb);
        let parts: Vec<Var> = inst
            .buckets
            .iter()
            .map(|b| self.encode_rows(t, s, input, None, b.seq_index.clone(), b.width))
            .collect();
        t.concat_rows(&parts)
    }

    /// Stages 1–2 and the head's projections: the table of
    /// [`Self::tunnel_table`], bitwise, but with each bucket encoded
    /// `tile_rows` rows (whole sequences, at least one) at a time inside a
    /// [`Tape::scoped`] that forgets the tile's intermediates once its
    /// output rows are copied out, and the projections the cached head
    /// reads. Those intermediates are ~2.5 KB per row — 26 MB streamed
    /// through the cache for GEANT's 10 516 rows when a bucket is one tile.
    /// Layer 0's LN1 and per-head Q/K/V run once, before the tiles, on the
    /// `1 + E` distinct encoder-input rows (77 on GEANT, 379 on UsCarrier),
    /// and each tile gathers its rows of them. The training route gathers
    /// first instead: there the hoist would reorder the projections'
    /// gradient sums. Returns `(table, projected)`.
    fn encode_epoch(
        &self,
        s: &ParamStore,
        inst: &Instance,
        tile_rows: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut t = Tape::new();
        let edge_emb = self.edge_embeddings(&mut t, s, inst);
        let input = self.encoder_input(&mut t, s, edge_emb);
        let first = self.settrans.project_first(&mut t, s, input);
        let shape = vec![inst.table_rows(), self.cfg.d_model];
        let mut data = Vec::with_capacity(shape[0] * shape[1]);
        for b in inst.buckets.iter() {
            let tile = (tile_rows / b.width).max(1) * b.width;
            for seq_index in b.seq_index.chunks(tile) {
                t.scoped(|t| {
                    let seq_index = Arc::new(seq_index.to_vec());
                    let out = self.encode_rows(t, s, input, Some(&first), seq_index, b.width);
                    data.extend_from_slice(t.value(out));
                });
            }
        }
        // What the head reads: the nodes its tape route would compute, for
        // every tunnel and every pair, on this (warm) arena.
        let src = TableSrc::Tape(t.constant_slice(shape, &data));
        let tunnels = self.tunnel_seed(&mut t, s, inst, &src);
        let all_pairs: Vec<usize> = (0..inst.num_pairs()).collect();
        let by_pair = self.pair_seed(&mut t, s, inst, &src, &all_pairs);
        let projected = [t.value(tunnels), t.value(by_pair)].concat();
        (data, projected)
    }

    /// Stages 3–4 (MLP1 + RAU + final softmax) from an edge-tunnel
    /// embedding `table`. This is the only part of the forward pass that
    /// reads the traffic matrix, which is what makes the per-epoch
    /// embedding cache sound.
    ///
    /// The first layer of both MLPs takes `[embedding row | scalars]`; it
    /// never sees that concatenation. The product over the embedding
    /// columns comes from `table` ([`Self::tunnel_seed`],
    /// [`Self::pair_seed`]) and seeds the layer's product over the scalar
    /// columns ([`Mlp::forward_seeded`]) — bitwise the concatenated layer.
    fn head(&self, t: &mut Tape, s: &ParamStore, inst: &Instance, table: TableSrc<'_>) -> Var {
        let demand_col = t.constant_slice(vec![inst.num_tunnels, 1], &inst.tunnel_demand);
        let mut u = {
            let _mlp1 = harp_obs::span("harp.mlp1");
            let seed = self.tunnel_seed(t, s, inst, &table);
            let u0 = self.mlp1.forward_seeded(t, s, seed, demand_col);
            t.reshape(u0, vec![inst.num_tunnels])
        };

        let _rau = harp_obs::span("harp.rau");
        // each tunnel's bottleneck pair this iteration
        let mut bottleneck = Vec::with_capacity(inst.num_tunnels);
        for _ in 0..self.cfg.rau_iters {
            let w = t.segment_softmax(u, inst.tunnel_flow.clone(), inst.num_flows);
            let utils = utilization(t, w, inst);
            let mlu = t.max_all(utils);

            // per-tunnel bottleneck: max utilization over the tunnel's edges
            let pair_util = t.gather_rows(utils, inst.pair_edge.clone());
            let bott_util = t.segment_max(pair_util, inst.pair_tunnel.clone(), inst.num_tunnels);
            // data-dependent gather of the bottleneck edge-tunnel embedding
            bottleneck.clear();
            bottleneck.extend_from_slice(t.segment_argmax_of(bott_util));
            let seed = self.pair_seed(t, s, inst, &table, &bottleneck);

            // Utilizations can reach ~1e7 on failed (capacity-floored)
            // links; feed the RAU log-compressed magnitudes plus the
            // *bounded* ratio U(l)/MLU — "RAU compares the network-wide
            // MLU with U(l)" (§3.5) — so the comparison signal stays well
            // conditioned regardless of failure severity.
            let bott_log = {
                let p1 = t.add_scalar(bott_util, 1.0);
                let l = t.ln(p1);
                t.reshape(l, vec![inst.num_tunnels, 1])
            };
            let mlu_log = {
                let p1 = t.add_scalar(mlu, 1.0);
                let l = t.ln(p1);
                let v = t.broadcast_scalar(l, inst.num_tunnels);
                t.reshape(v, vec![inst.num_tunnels, 1])
            };
            let ratio = {
                let inv_mlu = t.recip(mlu, 1e-9);
                let inv_vec = t.broadcast_scalar(inv_mlu, inst.num_tunnels);
                let r = t.mul(bott_util, inv_vec);
                t.reshape(r, vec![inst.num_tunnels, 1])
            };
            let scalars = t.concat_cols(&[bott_log, mlu_log, ratio, demand_col]);
            let delta = self.rau.forward_seeded(t, s, seed, scalars);
            let delta = t.reshape(delta, vec![inst.num_tunnels]);
            u = t.add(u, delta);
        }

        t.segment_softmax(u, inst.tunnel_flow.clone(), inst.num_flows)
    }

    /// MLP1's first-layer product over every tunnel's embedding (the CLS
    /// row of its sequence), `[T, mlp_hidden]`.
    fn tunnel_seed(&self, t: &mut Tape, s: &ParamStore, inst: &Instance, table: &TableSrc) -> Var {
        match table {
            TableSrc::Tape(v) => {
                let emb = t.gather_rows(*v, inst.cls_row.clone());
                self.mlp1.project_head(t, s, emb)
            }
            TableSrc::Host(c) => {
                let (tunnels, _) = c.projected.split_at(inst.num_tunnels * self.cfg.mlp_hidden);
                t.constant_slice(vec![inst.num_tunnels, self.cfg.mlp_hidden], tunnels)
            }
        }
    }

    /// The RAU's first-layer product over the edge-tunnel embeddings of
    /// `pairs`, `[pairs.len(), mlp_hidden]`.
    fn pair_seed(
        &self,
        t: &mut Tape,
        s: &ParamStore,
        inst: &Instance,
        table: &TableSrc,
        pairs: &[usize],
    ) -> Var {
        match table {
            TableSrc::Tape(v) => {
                let rows = pairs.iter().map(|&p| inst.pair_row[p]).collect();
                let emb = t.gather_rows(*v, Arc::new(rows));
                self.rau.project_head(t, s, emb)
            }
            TableSrc::Host(c) => {
                let (_, by_pair) = c.projected.split_at(inst.num_tunnels * self.cfg.mlp_hidden);
                t.constant_rows(by_pair, self.cfg.mlp_hidden, pairs)
            }
        }
    }
}

/// Where [`Harp::head`] gets the two MLPs' first-layer products over
/// edge-tunnel embedding rows from: computed on the tape from the live
/// table node (training — gradients flow back through the products and the
/// gathers into the set transformer) or copied from the epoch cache, which
/// holds them for every tunnel and every pair (serving). Both routes yield
/// identical bytes row by row, so the forward values are bitwise-equal; the
/// host route never sees a raw table row.
enum TableSrc<'a> {
    Tape(Var),
    Host(&'a crate::EpochCache),
}

impl SplitModel for Harp {
    fn forward(&self, t: &mut Tape, s: &ParamStore, inst: &Instance) -> Var {
        let table = self.encode_table(t, s, inst);
        self.forward_encoded(t, s, inst, table)
    }

    /// Stages 1–2 on the tape: the packed edge-tunnel table.
    fn encode(&self, t: &mut Tape, s: &ParamStore, inst: &Instance) -> Option<Var> {
        Some(self.encode_table(t, s, inst))
    }

    fn forward_encoded(&self, t: &mut Tape, s: &ParamStore, inst: &Instance, table: Var) -> Var {
        self.head(t, s, inst, TableSrc::Tape(table))
    }

    /// HARP's stages 1–2 (GCN + set transformer) read only the topology
    /// and tunnel tensors of `inst`, so the resulting edge-tunnel
    /// embedding table is cacheable across every TM of an epoch — and it
    /// dominates forward cost, so serving re-runs only the cheap head.
    fn precompute_epoch(&self, s: &ParamStore, inst: &Instance) -> Option<crate::EpochCache> {
        let _span = harp_obs::span("harp.precompute_epoch");
        let (_table, projected) = self.encode_epoch(s, inst, L2_TILE_ROWS);
        Some(crate::EpochCache {
            projected: Arc::new(projected),
        })
    }

    fn forward_cached(
        &self,
        t: &mut Tape,
        s: &ParamStore,
        inst: &Instance,
        cache: &crate::EpochCache,
    ) -> Var {
        self.head(t, s, inst, TableSrc::Host(cache))
    }

    fn name(&self) -> &'static str {
        if self.cfg.rau_iters == 0 {
            "HARP-NoRAU"
        } else {
            "HARP"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mlu_loss;
    use crate::{run_inference, run_inference_cached, EvalOptions};
    use harp_nn::expand_key_mask;
    use harp_paths::{Path, TunnelSet};
    use harp_tensor::gradcheck::gradcheck;
    use harp_topology::Topology;
    use harp_traffic::TrafficMatrix;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    const RING: usize = 13;

    fn ring() -> Topology {
        ring_of(RING)
    }

    fn ring_of(n: usize) -> Topology {
        let mut topo = Topology::new(n);
        for a in 0..n {
            topo.add_link(a, (a + 1) % n, 10.0 + a as f64).unwrap();
        }
        topo
    }

    /// One single-tunnel flow per entry of `lens`, walking that many hops
    /// clockwise round a ring of [`RING`] nodes, or of one more node than
    /// the longest tunnel has hops when that is more: any multiset of
    /// positive lengths is a tunnel set.
    fn ring_instance(lens: &[usize]) -> Instance {
        let n = lens.iter().map(|&l| l + 1).fold(RING, usize::max);
        let topo = ring_of(n);
        let clockwise: Vec<usize> = (0..n)
            .map(|a| {
                let hop = |e: &harp_topology::Edge| e.src == a && e.dst == (a + 1) % n;
                topo.edges().iter().position(hop).unwrap()
            })
            .collect();
        let mut tm = TrafficMatrix::zeros(n);
        let (flows, tunnels) = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let (src, dst) = (i * 5 % n, (i * 5 + len) % n);
                tm.set_demand(src, dst, 1.0 + i as f64);
                let path = (0..len).map(|h| clockwise[(src + h) % n]).collect();
                ((src, dst), vec![Path(path)])
            })
            .unzip();
        Instance::compile(&topo, &TunnelSet::from_parts(flows, tunnels), &tm)
    }

    /// The packed table must equal, bitwise on every CLS and pair row, what
    /// the same encoder yields on the same tunnels padded to the longest
    /// one with the padding keys masked out.
    fn assert_packed_equals_padded(lens: &[usize]) {
        let inst = ring_instance(lens);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let harp = Harp::new(&mut store, &mut rng, HarpConfig::default());
        let d = harp.cfg.d_model;
        let mut t = Tape::new();
        let edge_emb = harp.edge_embeddings(&mut t, &store, &inst);
        let packed = harp.tunnel_table(&mut t, &store, &inst, edge_emb);
        assert_eq!(t.shape(packed).0, vec![inst.table_rows(), d]);

        // pairs come tunnel by tunnel in path order: slot 0 = CLS, then
        // edges. The ring's tunnels all run clockwise, so a tunnel shares
        // rows only with a copy of itself (same start and length), read in
        // the same order: its padded slots are bitwise the copy's, and the
        // row may name either.
        let width = lens.iter().max().unwrap() + 1;
        let mut seq_index = vec![0usize; lens.len() * width];
        let mut key_mask = vec![0.0f32; lens.len() * width];
        let mut slot_of_row = vec![usize::MAX; inst.table_rows()];
        let mut pair = 0;
        for (tun, &len) in lens.iter().enumerate() {
            key_mask[tun * width] = 1.0;
            slot_of_row[inst.cls_row[tun]] = tun * width;
            for pos in 1..=len {
                assert_eq!(inst.pair_tunnel[pair], tun);
                seq_index[tun * width + pos] = inst.pair_edge[pair] + 1;
                key_mask[tun * width + pos] = 1.0;
                slot_of_row[inst.pair_row[pair]] = tun * width + pos;
                pair += 1;
            }
        }
        let cls = t.param(&store, harp.cls);
        let table = t.concat_rows(&[cls, edge_emb]);
        let seqs = t.gather_rows(table, Arc::new(seq_index));
        let seqs3 = t.reshape(seqs, vec![lens.len(), width, d]);
        let mask = Arc::new(expand_key_mask(&key_mask, lens.len(), width));
        let padded = harp.settrans.forward(&mut t, &store, seqs3, Some(mask));

        let (packed, padded) = (t.value(packed), t.value(padded));
        for (row, &slot) in slot_of_row.iter().enumerate() {
            let got = packed[row * d..][..d].iter().map(|x| x.to_bits());
            let want = padded[slot * d..][..d].iter().map(|x| x.to_bits());
            assert!(got.eq(want), "packed row {row} != padded slot {slot}");
        }
    }

    #[test]
    fn packed_table_equals_padded_reference_on_edge_cases() {
        assert_packed_equals_padded(&[5]); // one tunnel
        assert_packed_equals_padded(&[3, 3, 3, 3]); // one bucket
        assert_packed_equals_padded(&[1, 12, 1, 1]); // a single-tunnel bucket
        assert_packed_equals_padded(&[12, 1, 2, 1, 12, 7]); // flat order != bucket order
        assert_packed_equals_padded(&[36, 2, 33, 36, 31]); // rows wider than 32 keys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn packed_table_equals_padded_reference(
            lens in proptest::collection::vec(prop_oneof![1usize..=12, 31usize..=36], 1..24),
        ) {
            assert_packed_equals_padded(&lens);
        }
    }

    /// The epoch cache must not depend on the tile size: for tiles of one
    /// sequence, of 7 rows (a bucket's last tile is then usually ragged),
    /// of exactly the largest bucket and of more rows than the instance
    /// has, table and projections are the bits the training route computes
    /// with every bucket whole and every value on one tape.
    fn assert_tiled_equals_whole_buckets(lens: &[usize]) {
        let inst = ring_instance(lens);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(14);
        let harp = Harp::new(&mut store, &mut rng, HarpConfig::default());

        let mut t = Tape::new();
        let edge_emb = harp.edge_embeddings(&mut t, &store, &inst);
        let table = harp.tunnel_table(&mut t, &store, &inst, edge_emb);
        let src = TableSrc::Tape(table);
        let tunnels = harp.tunnel_seed(&mut t, &store, &inst, &src);
        let all_pairs: Vec<usize> = (0..inst.num_pairs()).collect();
        let by_pair = harp.pair_seed(&mut t, &store, &inst, &src, &all_pairs);
        let want_projected = [t.value(tunnels), t.value(by_pair)].concat();

        let bucket = inst.buckets.iter().map(|b| b.seq_index.len()).max();
        for tile_rows in [1, 7, bucket.unwrap(), usize::MAX] {
            let (got_table, projected) = harp.encode_epoch(&store, &inst, tile_rows);
            assert_eq!(
                bits(&got_table),
                bits(t.value(table)),
                "table, tile of {tile_rows} rows"
            );
            assert_eq!(
                bits(&projected),
                bits(&want_projected),
                "projections, tile of {tile_rows} rows"
            );
        }
    }

    #[test]
    fn tiled_epoch_cache_equals_whole_buckets_on_edge_cases() {
        assert_tiled_equals_whole_buckets(&[5]); // one tunnel, one tile always
        assert_tiled_equals_whole_buckets(&[6, 6, 6, 6, 6]); // 7 rows = one sequence
        assert_tiled_equals_whole_buckets(&[2, 2, 2, 2, 2, 12, 1]); // 7 rows = 2 of 5 sequences
        assert_tiled_equals_whole_buckets(&[36, 33, 36, 1, 36]); // UsCarrier's widest: 37 rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn tiled_epoch_cache_equals_whole_buckets(
            lens in proptest::collection::vec(prop_oneof![1usize..=12, 31usize..=36], 1..24),
        ) {
            assert_tiled_equals_whole_buckets(&lens);
        }
    }

    /// Every tunnel's CLS and pair rows of the packed table against the
    /// tunnel encoded alone, in its own edge order: within `tol`, or
    /// bitwise at `tol == 0`.
    fn assert_rows_match_own_encoding(inst: &Instance, tol: f32) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(15);
        let harp = Harp::new(&mut store, &mut rng, HarpConfig::default());
        let d = harp.cfg.d_model;
        let mut t = Tape::new();
        let edge_emb = harp.edge_embeddings(&mut t, &store, inst);
        let table = harp.tunnel_table(&mut t, &store, inst, edge_emb);
        let input = harp.encoder_input(&mut t, &store, edge_emb);
        let mut first = 0;
        for tun in 0..inst.num_tunnels {
            let end = first + inst.pair_tunnel[first..].partition_point(|&p| p == tun);
            let seq: Vec<usize> = std::iter::once(0)
                .chain(inst.pair_edge[first..end].iter().map(|&e| e + 1))
                .collect();
            let width = seq.len();
            let alone = harp.encode_rows(&mut t, &store, input, None, Arc::new(seq), width);
            let rows = std::iter::once(inst.cls_row[tun]).chain(inst.pair_row[first..end].to_vec());
            for (slot, row) in rows.enumerate() {
                let got = &t.value(table)[row * d..][..d];
                let want = &t.value(alone)[slot * d..][..d];
                let close = got.iter().zip(want).all(|(g, w)| {
                    if tol == 0.0 {
                        g.to_bits() == w.to_bits()
                    } else {
                        (g - w).abs() <= tol
                    }
                });
                assert!(
                    close,
                    "tunnel {tun} slot {slot}: row {row} {got:?} != {want:?}"
                );
            }
            first = end;
        }
    }

    /// A connected `n`-node topology: a ring plus `chords`, link capacities
    /// drawn by `seed` from {10, 20, 40}, the reverse direction at `skew`
    /// times the forward one. Every node is an edge node, k = 3.
    fn random_instance(n: usize, chords: &[(usize, usize)], seed: u64, skew: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = Topology::new(n);
        let links = (0..n)
            .map(|a| (a, (a + 1) % n))
            .chain(chords.iter().copied());
        for (a, b) in links {
            if a != b && topo.edge_id(a, b).is_none() {
                let cap = [10.0, 20.0, 40.0][rng.gen_range(0..3usize)];
                topo.add_edge(a, b, cap).unwrap();
                topo.add_edge(b, a, cap * skew).unwrap();
            }
        }
        let nodes: Vec<usize> = (0..n).collect();
        let tunnels = TunnelSet::k_shortest(&topo, &nodes, 3, 0.0);
        Instance::compile(&topo, &tunnels, &TrafficMatrix::zeros(n))
    }

    /// Symmetric capacities: reversed tunnels share their representative's
    /// rows, which hold the tunnel's own encoding up to rounding — the
    /// encoder has no positional encodings, and a reversed read only
    /// changes the order in which attention sums its keys (1e-5 is ~100
    /// ulps of the table's magnitudes). Asymmetric capacities: nothing is
    /// shared and every row is the tunnel's own encoding, bitwise.
    fn assert_sharing_is_the_own_encoding(inst_sym: &Instance, inst_asym: &Instance) {
        assert!(inst_sym.table_rows() < inst_sym.num_tunnels + inst_sym.num_pairs());
        assert_rows_match_own_encoding(inst_sym, 1e-5);
        assert_eq!(
            inst_asym.table_rows(),
            inst_asym.num_tunnels + inst_asym.num_pairs()
        );
        assert_rows_match_own_encoding(inst_asym, 0.0);
    }

    #[test]
    fn shared_rows_are_the_own_encoding_on_the_ring() {
        let (topo, tunnels, _) = mixed_length_parts();
        let inst = Instance::compile(&topo, &tunnels, &TrafficMatrix::zeros(RING));
        let asym = random_instance(RING, &[], 3, 1.5);
        assert_sharing_is_the_own_encoding(&inst, &asym);
        assert_sharing_is_the_own_encoding(&random_instance(9, &[(0, 4), (2, 7)], 4, 1.0), &asym);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn shared_rows_are_the_own_encoding(
            n in 4usize..8,
            ends in proptest::collection::vec(0usize..64, 0..12),
            seed in 0u64..1 << 32,
        ) {
            let chords: Vec<(usize, usize)> = ends.chunks_exact(2).map(|c| (c[0] % n, c[1] % n)).collect();
            assert_sharing_is_the_own_encoding(
                &random_instance(n, &chords, seed, 1.0),
                &random_instance(n, &chords, seed, 1.5),
            );
        }
    }

    #[test]
    fn bucketed_encoder_gradcheck() {
        let inst = ring_instance(&[2, 1, 3, 2]);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        // Few ReLU units and a step below the nn gradchecks' 1e-2: a
        // finite-difference step across a kink is how this check fails on
        // a correct backward pass (f32 noise bounds the step from below).
        let cfg = HarpConfig {
            d_model: 4,
            d_ff: 4,
            ..small_cfg()
        };
        let harp = Harp::new(&mut store, &mut rng, cfg);
        let ids: Vec<_> = store
            .ids()
            .filter(|&id| {
                let name = store.name(id);
                ["harp.settrans", "harp.cls", "harp.edge_proj"]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .collect();
        let res = gradcheck(&mut store, &ids, 3e-3, 5e-2, |st| {
            let mut t = Tape::new();
            let edge_emb = harp.edge_embeddings(&mut t, st, &inst);
            let table = harp.tunnel_table(&mut t, st, &inst, edge_emb);
            // a non-uniform readout, so no row or column cancels out
            let shape = t.shape(table).0.clone();
            let n: usize = shape.iter().product();
            let weights = t.constant(shape, (0..n).map(|i| (i % 7) as f32 - 2.5).collect());
            let weighted = t.mul(table, weights);
            let l = t.sum_all(weighted);
            (t, l)
        });
        assert!(res.is_ok(), "{res:?}");
    }

    #[test]
    fn epoch_cache_serves_the_plain_forward_on_six_buckets() {
        let (topo, tunnels, tm) = mixed_length_parts();
        let inst = Instance::compile(&topo, &tunnels, &tm);
        assert_eq!(inst.buckets.len(), 6);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());
        let cache = harp.precompute_epoch(&store, &inst).unwrap();
        for opts in [EvalOptions::default(), EvalOptions::with_rescaling()] {
            let plain = run_inference(&harp, &store, &inst, opts);
            let cached = run_inference_cached(&harp, &store, &inst, opts, &cache);
            assert_eq!(plain.mlu.to_bits(), cached.mlu.to_bits());
            assert_eq!(plain.splits, cached.splits);
        }
    }

    /// HARP with the head as it was before the seeded affine op: each MLP's
    /// input is the embedding rows concatenated with the scalar columns,
    /// each layer `matmul → add_bias → leaky_relu`. The reference the
    /// seeded head must match bit for bit, forward and backward.
    struct ConcatHead<'a>(&'a Harp);

    impl ConcatHead<'_> {
        fn mlp(t: &mut Tape, s: &ParamStore, name: &str, x: Var) -> Var {
            let param = |t: &mut Tape, suffix: &str| {
                let want = format!("{name}.{suffix}");
                let id = s.ids().find(|&id| s.name(id) == want).expect("registered");
                t.param(s, id)
            };
            let (w0, b0) = (param(t, "0.w"), param(t, "0.b"));
            let h = t.matmul(x, w0);
            let h = t.add_bias(h, b0);
            let h = t.leaky_relu(h, 0.01);
            let (w1, b1) = (param(t, "1.w"), param(t, "1.b"));
            let o = t.matmul(h, w1);
            t.add_bias(o, b1)
        }
    }

    impl SplitModel for ConcatHead<'_> {
        fn forward(&self, t: &mut Tape, s: &ParamStore, inst: &Instance) -> Var {
            let edge_emb = self.0.edge_embeddings(t, s, inst);
            let table = self.0.tunnel_table(t, s, inst, edge_emb);
            let n = inst.num_tunnels;
            let demand_col = t.constant_slice(vec![n, 1], &inst.tunnel_demand);
            let tunnel_emb = t.gather_rows(table, inst.cls_row.clone());
            let mlp1_in = t.concat_cols(&[tunnel_emb, demand_col]);
            let u0 = Self::mlp(t, s, "harp.mlp1", mlp1_in);
            let mut u = t.reshape(u0, vec![n]);
            for _ in 0..self.0.cfg.rau_iters {
                let w = t.segment_softmax(u, inst.tunnel_flow.clone(), inst.num_flows);
                let utils = utilization(t, w, inst);
                let mlu = t.max_all(utils);
                let pair_util = t.gather_rows(utils, inst.pair_edge.clone());
                let bott_util = t.segment_max(pair_util, inst.pair_tunnel.clone(), n);
                let rows = t.segment_argmax_of(bott_util).iter();
                let rows: Vec<usize> = rows.map(|&p| inst.pair_row[p]).collect();
                let bott_emb = t.gather_rows(table, Arc::new(rows));
                let column = |t: &mut Tape, v: Var| t.reshape(v, vec![n, 1]);
                let bott_log = {
                    let p1 = t.add_scalar(bott_util, 1.0);
                    let l = t.ln(p1);
                    column(t, l)
                };
                let mlu_log = {
                    let p1 = t.add_scalar(mlu, 1.0);
                    let l = t.ln(p1);
                    let v = t.broadcast_scalar(l, n);
                    column(t, v)
                };
                let ratio = {
                    let inv_mlu = t.recip(mlu, 1e-9);
                    let inv_vec = t.broadcast_scalar(inv_mlu, n);
                    let r = t.mul(bott_util, inv_vec);
                    column(t, r)
                };
                let rau_in = t.concat_cols(&[bott_emb, bott_log, mlu_log, ratio, demand_col]);
                let delta = Self::mlp(t, s, "harp.rau", rau_in);
                let delta = t.reshape(delta, vec![n]);
                u = t.add(u, delta);
            }
            t.segment_softmax(u, inst.tunnel_flow.clone(), inst.num_flows)
        }

        fn name(&self) -> &'static str {
            "HARP-concat-head"
        }
    }

    /// Two tunnels per flow on the ring, hop counts (1, 12), (5, 8), (4, 9):
    /// six length buckets.
    fn mixed_length_parts() -> (Topology, TunnelSet, TrafficMatrix) {
        let topo = ring();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 1, 5], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(RING);
        for (i, &(s, d)) in tunnels.flows().iter().enumerate() {
            tm.set_demand(s, d, 3.0 + i as f64);
        }
        (topo, tunnels, tm)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn seeded_head_matches_the_concat_reference_through_training() {
        let (topo, tunnels, tm) = mixed_length_parts();
        let inst = Instance::compile(&topo, &tunnels, &tm);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());
        let mut ref_store = store.clone();
        let reference = ConcatHead(&harp);

        let mut opts = [&mut store, &mut ref_store]
            .map(|s| harp_nn::Adam::new(s, harp_nn::AdamConfig::with_lr(5e-3)));
        for step in 0..4 {
            let models: [&dyn SplitModel; 2] = [&harp, &reference];
            let mut seen = Vec::new();
            for ((model, s), opt) in models
                .iter()
                .zip([&mut store, &mut ref_store])
                .zip(&mut opts)
            {
                let mut t = Tape::new();
                let splits = model.forward(&mut t, s, &inst);
                let l = mlu_loss(&mut t, splits, &inst);
                s.zero_grads();
                t.backward(l, s);
                let grads: Vec<Vec<u32>> = s.ids().map(|id| bits(s.grad(id))).collect();
                seen.push((bits(t.value(splits)), t.scalar_value(l).to_bits(), grads));
                opt.step_and_zero(s);
            }
            assert_eq!(seen[0].0, seen[1].0, "splits at step {step}");
            assert_eq!(seen[0].1, seen[1].1, "loss at step {step}");
            for (id, (got, want)) in store.ids().zip(seen[0].2.iter().zip(&seen[1].2)) {
                assert_eq!(got, want, "gradient of {} at step {step}", store.name(id));
            }
        }
        for id in store.ids() {
            assert_eq!(
                bits(store.data(id)),
                bits(ref_store.data(id)),
                "{} after training",
                store.name(id)
            );
        }
    }

    #[test]
    fn epoch_cache_matches_full_forward_on_a_failed_link_epoch() {
        // a failed link is floored to harp-serve's FAILED_CAPACITY, not
        // removed: utilizations on it reach ~1e5 and every tunnel through
        // it bottlenecks there
        let (mut topo, tunnels, tm) = mixed_length_parts();
        let e = topo.edge_id(2, 3).expect("ring link");
        topo.set_capacity(e, 1e-4).unwrap();
        let epoch = Instance::compile(&topo, &tunnels, &TrafficMatrix::zeros(RING));
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());
        let cache = harp.precompute_epoch(&store, &epoch).unwrap();
        let h = harp.cfg.mlp_hidden;
        assert_eq!(
            cache.projected.len(),
            (epoch.num_tunnels + epoch.num_pairs()) * h
        );
        let mut tm2 = tm.clone();
        tm2.set_demand(0, 1, 40.0);
        for tm in [&tm, &tm2] {
            // the epoch's instance retargeted, as the shard serves it
            let inst = epoch.with_traffic(tm);
            let plain = run_inference(&harp, &store, &inst, EvalOptions::default());
            let cached = run_inference_cached(&harp, &store, &inst, EvalOptions::default(), &cache);
            assert_eq!(plain.mlu.to_bits(), cached.mlu.to_bits());
            assert_eq!(plain.splits, cached.splits);
            assert!(plain.mlu > 1e3, "the failed link carries traffic");
        }
    }

    fn diamond_instance() -> Instance {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 3, 10.0).unwrap();
        topo.add_link(0, 2, 20.0).unwrap();
        topo.add_link(2, 3, 20.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 12.0);
        tm.set_demand(3, 0, 6.0);
        Instance::compile(&topo, &tunnels, &tm)
    }

    fn small_cfg() -> HarpConfig {
        HarpConfig {
            gnn_layers: 2,
            gnn_hidden: 4,
            d_model: 8,
            settrans_layers: 1,
            heads: 1,
            d_ff: 16,
            mlp_hidden: 16,
            rau_iters: 3,
        }
    }

    #[test]
    fn forward_produces_valid_splits() {
        let inst = diamond_instance();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());
        let mut t = Tape::new();
        let splits = harp.forward(&mut t, &store, &inst);
        let s: Vec<f64> = t.value(splits).iter().map(|&x| x as f64).collect();
        assert!(inst.program.splits_are_valid(&s, 1e-4), "splits {s:?}");
    }

    #[test]
    fn training_step_reduces_loss() {
        let inst = diamond_instance();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());
        let loss_of = |store: &ParamStore| {
            let mut t = Tape::new();
            let splits = harp.forward(&mut t, store, &inst);
            let l = mlu_loss(&mut t, splits, &inst);
            (t, l)
        };
        let (t0, l0) = loss_of(&store);
        let before = t0.scalar_value(l0);
        let mut opt = harp_nn::Adam::new(&store, harp_nn::AdamConfig::with_lr(5e-3));
        for _ in 0..30 {
            let (t, l) = loss_of(&store);
            store.zero_grads();
            t.backward(l, &mut store);
            opt.step_and_zero(&mut store);
        }
        let (t1, l1) = loss_of(&store);
        assert!(
            t1.scalar_value(l1) < before,
            "{} !< {}",
            t1.scalar_value(l1),
            before
        );
    }

    #[test]
    fn node_relabeling_invariance() {
        // Build the same network with permuted node ids; the per-tunnel
        // splits must be identical for corresponding tunnels.
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 3, 10.0).unwrap();
        topo.add_link(0, 2, 20.0).unwrap();
        topo.add_link(2, 3, 20.0).unwrap();
        let perm = vec![2usize, 3, 1, 0];
        let ptopo = topo.permute_nodes(&perm).unwrap();

        let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
        let edge_nodes_p: Vec<usize> = vec![perm[0], perm[3]];
        let ptunnels = TunnelSet::k_shortest(&ptopo, &edge_nodes_p, 2, 0.0);

        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 12.0);
        tm.set_demand(3, 0, 6.0);
        let ptm = tm.permute(&perm);

        let inst = Instance::compile(&topo, &tunnels, &tm);
        let pinst = Instance::compile(&ptopo, &ptunnels, &ptm);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());

        let run = |inst: &Instance| {
            let mut t = Tape::new();
            let s = harp.forward(&mut t, &store, inst);
            t.value(s).to_vec()
        };
        let a = run(&inst);
        let b = run(&pinst);

        // match tunnels across instances by their (permuted) node sequence
        let seq_a = tunnels.node_sequences(&topo);
        let seq_b = ptunnels.node_sequences(&ptopo);
        for (i, sa) in seq_a.iter().enumerate() {
            let mapped: Vec<usize> = sa.iter().map(|&n| perm[n]).collect();
            let j = seq_b
                .iter()
                .position(|sb| *sb == mapped)
                .expect("tunnel exists in permuted instance");
            assert!(
                (a[i] - b[j]).abs() < 1e-4,
                "tunnel {i}: {} vs {}",
                a[i],
                b[j]
            );
        }
    }

    #[test]
    fn tunnel_reordering_invariance() {
        let mut topo = Topology::new(4);
        topo.add_link(0, 1, 10.0).unwrap();
        topo.add_link(1, 3, 10.0).unwrap();
        topo.add_link(0, 2, 20.0).unwrap();
        topo.add_link(2, 3, 20.0).unwrap();
        let tunnels = TunnelSet::k_shortest(&topo, &[0, 3], 2, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let shuffled = tunnels.shuffled(&mut rng);

        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(0, 3, 12.0);
        tm.set_demand(3, 0, 6.0);

        let inst = Instance::compile(&topo, &tunnels, &tm);
        let sinst = Instance::compile(&topo, &shuffled, &tm);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());

        let mut t1 = Tape::new();
        let s1 = harp.forward(&mut t1, &store, &inst);
        let mut t2 = Tape::new();
        let s2 = harp.forward(&mut t2, &store, &sinst);

        let seq_a = tunnels.node_sequences(&topo);
        let seq_b = shuffled.node_sequences(&topo);
        for (i, sa) in seq_a.iter().enumerate() {
            let j = seq_b.iter().position(|sb| sb == sa).unwrap();
            assert!(
                (t1.value(s1)[i] - t2.value(s2)[j]).abs() < 1e-5,
                "tunnel {i}"
            );
        }
    }

    #[test]
    fn norau_has_fewer_graph_ops() {
        let inst = diamond_instance();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let harp = Harp::new(&mut store, &mut rng, small_cfg());
        let mut store2 = ParamStore::new();
        let mut rng2 = StdRng::seed_from_u64(5);
        let cfg = HarpConfig {
            rau_iters: 0,
            ..small_cfg()
        };
        let norau = Harp::new(&mut store2, &mut rng2, cfg);
        assert_eq!(norau.name(), "HARP-NoRAU");
        assert_eq!(harp.name(), "HARP");

        let mut t1 = Tape::new();
        let _ = harp.forward(&mut t1, &store, &inst);
        let mut t2 = Tape::new();
        let _ = norau.forward(&mut t2, &store2, &inst);
        assert!(t2.len() < t1.len());
    }

    #[test]
    fn param_count_is_small() {
        // sanity: the default config stays in the paper's "tiny model"
        // regime (paper: 21K params for AnonNet's selected model)
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Harp::new(&mut store, &mut rng, HarpConfig::default());
        assert!(
            store.num_scalars() < 60_000,
            "params = {}",
            store.num_scalars()
        );
    }
}
