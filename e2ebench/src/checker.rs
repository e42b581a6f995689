//! An independent PSI checker: plain backtracking witness search over
//! the benchmark's own adjacency lists. It shares no code with the
//! program's matchers, so it can confirm the program's answers.
//!
//! A node `v` is a valid binding of a query's pivot iff some injective,
//! label-preserving map of the query nodes into the graph sends the
//! pivot to `v` and every query edge to a graph edge (non-induced
//! subgraph isomorphism). Edges carry no labels in the benchmark's
//! graphs.

use crate::gen::{DataGraph, Query, Rng, UpdateBatch};

/// The checker's own copy of a data graph (sorted adjacency lists).
#[derive(Debug, Clone)]
pub struct Checker {
    labels: Vec<u32>,
    adj: Vec<Vec<u32>>,
}

impl Checker {
    pub fn new(g: &DataGraph) -> Self {
        Checker {
            labels: g.labels.clone(),
            adj: g.adj.clone(),
        }
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Apply one update batch, exactly as the program is asked to.
    pub fn apply(&mut self, b: &UpdateBatch) {
        for &l in &b.add_nodes {
            self.labels.push(l);
            self.adj.push(Vec::new());
        }
        for &(u, v) in &b.add_edges {
            if u == v {
                continue;
            }
            for (a, c) in [(u, v), (v, u)] {
                let ns = &mut self.adj[a as usize];
                if let Err(pos) = ns.binary_search(&c) {
                    ns.insert(pos, c);
                }
            }
        }
    }

    /// Nodes carrying the pivot's label: every possible binding.
    pub fn pivot_label_nodes(&self, q: &Query) -> Vec<u32> {
        let l = q.labels[q.pivot as usize];
        (0..self.labels.len() as u32)
            .filter(|&v| self.labels[v as usize] == l)
            .collect()
    }

    /// Search for an embedding that binds the pivot to `v`. Returns the
    /// full map (query node → graph node) or `None` after an exhaustive
    /// search proves there is none.
    pub fn witness(&self, q: &Query, v: u32) -> Option<Vec<u32>> {
        let n = q.size();
        if v as usize >= self.labels.len() || self.labels[v as usize] != q.labels[q.pivot as usize]
        {
            return None;
        }
        let mut qadj = vec![Vec::new(); n];
        for &(a, b) in &q.edges {
            qadj[a as usize].push(b);
            qadj[b as usize].push(a);
        }
        // BFS order from the pivot: every later node has a mapped
        // neighbour to draw candidates from (queries are connected).
        let mut order = vec![q.pivot];
        let mut placed = vec![false; n];
        placed[q.pivot as usize] = true;
        let mut i = 0;
        while i < order.len() {
            let x = order[i] as usize;
            for &y in &qadj[x] {
                if !placed[y as usize] {
                    placed[y as usize] = true;
                    order.push(y);
                }
            }
            i += 1;
        }
        if order.len() != n {
            return None; // disconnected queries are outside the benchmark
        }
        let mut map = vec![u32::MAX; n];
        map[q.pivot as usize] = v;
        if self.extend(q, &qadj, &order, 1, &mut map) {
            Some(map)
        } else {
            None
        }
    }

    fn extend(
        &self,
        q: &Query,
        qadj: &[Vec<u32>],
        order: &[u32],
        k: usize,
        map: &mut [u32],
    ) -> bool {
        if k == order.len() {
            return true;
        }
        let x = order[k] as usize;
        let anchor = qadj[x]
            .iter()
            .copied()
            .find(|&y| map[y as usize] != u32::MAX)
            .expect("BFS order keeps an earlier neighbour");
        let base = map[anchor as usize];
        for &c in &self.adj[base as usize] {
            if self.labels[c as usize] != q.labels[x]
                || self.adj[c as usize].len() < qadj[x].len()
                || map.contains(&c)
            {
                continue;
            }
            let fits = qadj[x].iter().all(|&y| {
                let m = map[y as usize];
                m == u32::MAX || self.has_edge(c, m)
            });
            if !fits {
                continue;
            }
            map[x] = c;
            if self.extend(q, qadj, order, k + 1, map) {
                return true;
            }
            map[x] = u32::MAX;
        }
        false
    }

    /// Confirm `map` is an embedding binding the pivot to `v`, edge by
    /// edge.
    pub fn verify(&self, q: &Query, v: u32, map: &[u32]) -> bool {
        if map.len() != q.size() || map[q.pivot as usize] != v {
            return false;
        }
        for (i, &m) in map.iter().enumerate() {
            if m as usize >= self.labels.len()
                || self.labels[m as usize] != q.labels[i]
                || map[..i].contains(&m)
            {
                return false;
            }
        }
        q.edges
            .iter()
            .all(|&(a, b)| self.has_edge(map[a as usize], map[b as usize]))
    }

    /// Check one answer: every claimed-valid node must have a verified
    /// witness, and `sample` seeded picks among the remaining
    /// pivot-label nodes must have none. Returns a description of the
    /// first disagreement.
    ///
    /// `confirmed` lists nodes whose witnesses were verified on an
    /// earlier version of this graph. Updates only add nodes and edges,
    /// so those witnesses still hold: such nodes must still be claimed
    /// valid, and are not searched again.
    pub fn check_answer(
        &self,
        q: &Query,
        valid: &[u32],
        confirmed: &[u32],
        sample: usize,
        rng: &mut Rng,
    ) -> Result<(), String> {
        if let Some(v) = confirmed.iter().find(|v| valid.binary_search(v).is_err()) {
            return Err(format!(
                "node {v} had an embedding before the update but is no longer claimed valid"
            ));
        }
        for &v in valid.iter().filter(|v| confirmed.binary_search(v).is_err()) {
            match self.witness(q, v) {
                Some(map) if self.verify(q, v, &map) => {}
                Some(_) => return Err(format!("witness for node {v} failed verification")),
                None => return Err(format!("node {v} claimed valid but has no embedding")),
            }
        }
        let rest: Vec<u32> = self
            .pivot_label_nodes(q)
            .into_iter()
            .filter(|v| valid.binary_search(v).is_err())
            .collect();
        for _ in 0..sample.min(rest.len()) {
            let v = rest[rng.below(rest.len())];
            if self.witness(q, v).is_some() {
                return Err(format!("node {v} answered invalid but has an embedding"));
            }
        }
        Ok(())
    }
}

/// Every valid pivot binding by enumerating all injective maps — the
/// brute-force reference the self-test holds the backtracking to.
fn brute_force_valid(labels: &[u32], edges: &[(u32, u32)], q: &Query) -> Vec<u32> {
    let n = labels.len();
    let has = |u: u32, v: u32| {
        edges
            .iter()
            .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
    };
    let mut valid = Vec::new();
    let mut map = vec![0u32; q.size()];
    fn rec(
        k: usize,
        n: usize,
        map: &mut Vec<u32>,
        q: &Query,
        labels: &[u32],
        has: &dyn Fn(u32, u32) -> bool,
        valid: &mut Vec<u32>,
    ) {
        if k == map.len() {
            if q.edges
                .iter()
                .all(|&(a, b)| has(map[a as usize], map[b as usize]))
            {
                valid.push(map[q.pivot as usize]);
            }
            return;
        }
        for c in 0..n as u32 {
            if labels[c as usize] == q.labels[k] && !map[..k].contains(&c) {
                map[k] = c;
                rec(k + 1, n, map, q, labels, has, valid);
            }
        }
    }
    rec(0, n, &mut map, q, labels, &has, &mut valid);
    valid.sort_unstable();
    valid.dedup();
    valid
}

fn graph_from(labels: &[u32], edges: &[(u32, u32)]) -> DataGraph {
    let mut adj = vec![Vec::new(); labels.len()];
    for &(a, b) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    for ns in &mut adj {
        ns.sort_unstable();
        ns.dedup();
    }
    DataGraph {
        labels: labels.to_vec(),
        adj,
    }
}

/// The checker's self-test: the paper's Figure 1 example (valid =
/// {u1, u6}) and tiny random graphs where every embedding can be
/// enumerated. Returns the number of cases checked.
pub fn self_test() -> Result<usize, String> {
    let fig1_labels = [0, 1, 2, 2, 1, 0];
    let fig1_edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 2),
        (1, 3),
        (3, 4),
        (2, 4),
        (4, 5),
    ];
    let c = Checker::new(&graph_from(&fig1_labels, &fig1_edges));
    let q = Query {
        labels: vec![0, 1, 2],
        edges: vec![(0, 1), (1, 2)],
        pivot: 0,
    };
    let valid: Vec<u32> = c
        .pivot_label_nodes(&q)
        .into_iter()
        .filter(|&v| c.witness(&q, v).is_some_and(|m| c.verify(&q, v, &m)))
        .collect();
    if valid != [0, 5] {
        return Err(format!(
            "Figure 1: expected valid {{u1, u6}} = [0, 5], got {valid:?}"
        ));
    }
    let mut cases = 1;
    let mut rng = Rng::new(0x5e1f_7e57);
    for _ in 0..300 {
        let n = 5 + rng.below(3);
        let labels: Vec<u32> = (0..n).map(|_| rng.below(2) as u32).collect();
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.unit() < 0.45 {
                    edges.push((a, b));
                }
            }
        }
        let g = graph_from(&labels, &edges);
        let Some(q) = crate::gen::extract_query(&g, 2 + rng.below(3), &mut rng) else {
            continue;
        };
        let c = Checker::new(&g);
        let expected = brute_force_valid(&labels, &edges, &q);
        let got: Vec<u32> = (0..n as u32)
            .filter(|&v| c.witness(&q, v).is_some_and(|m| c.verify(&q, v, &m)))
            .collect();
        if got != expected {
            return Err(format!(
                "random case {q:?}: checker {got:?}, enumeration {expected:?}"
            ));
        }
        cases += 1;
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        assert!(self_test().unwrap() > 200);
    }

    #[test]
    fn updates_create_embeddings() {
        let g = graph_from(&[0, 1], &[]);
        let mut c = Checker::new(&g);
        let q = Query {
            labels: vec![0, 1, 2],
            edges: vec![(0, 1), (1, 2)],
            pivot: 0,
        };
        assert!(c.witness(&q, 0).is_none());
        c.apply(&UpdateBatch {
            add_nodes: vec![2],
            add_edges: vec![(0, 1), (1, 2)],
        });
        let m = c.witness(&q, 0).unwrap();
        assert!(c.verify(&q, 0, &m));
        assert!(!c.verify(&q, 0, &[0, 2, 1]));
    }
}
