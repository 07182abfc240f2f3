//! Byte and message accounting.
//!
//! The Table 1 experiment needs bytes-on-the-wire broken down by message
//! kind and by node; the engine records every enqueue (tx) and delivery
//! (rx) here.

use crate::message::NodeId;
use std::collections::BTreeMap;

/// Counters for one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Bytes enqueued on the uplink (including framing overhead).
    pub tx_bytes: u64,
    /// Bytes fully delivered to the node.
    pub rx_bytes: u64,
    /// Messages enqueued on the uplink.
    pub tx_msgs: u64,
    /// Messages fully delivered.
    pub rx_msgs: u64,
}

/// Counters for one message kind across all nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindMetrics {
    /// Bytes enqueued (tx side).
    pub bytes: u64,
    /// Messages enqueued (tx side).
    pub count: u64,
    /// Bytes fully delivered (rx side).
    pub rx_bytes: u64,
    /// Messages fully delivered (rx side).
    pub rx_count: u64,
}

/// Aggregated traffic statistics for a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    per_node: Vec<NodeMetrics>,
    /// One row per message kind, in first-seen order: a protocol has a
    /// handful of kinds, so a scan that compares pointers first beats a
    /// string-keyed map on every message.
    by_kind: Vec<(&'static str, KindMetrics)>,
    expired_events: u64,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![NodeMetrics::default(); n],
            by_kind: Vec::new(),
            expired_events: 0,
        }
    }

    /// The row of `kind`, added on first sight. Equal names behind
    /// distinct pointers share one row.
    fn kind_mut(&mut self, kind: &'static str) -> &mut KindMetrics {
        let index = match self
            .by_kind
            .iter()
            .position(|(name, _)| std::ptr::eq(*name, kind))
            .or_else(|| self.by_kind.iter().position(|(name, _)| *name == kind))
        {
            Some(index) => index,
            None => {
                self.by_kind.push((kind, KindMetrics::default()));
                self.by_kind.len() - 1
            }
        };
        &mut self.by_kind[index].1
    }

    pub(crate) fn record_tx(&mut self, node: NodeId, kind: &'static str, bytes: u64) {
        let m = &mut self.per_node[node.index()];
        m.tx_bytes += bytes;
        m.tx_msgs += 1;
        let k = self.kind_mut(kind);
        k.bytes += bytes;
        k.count += 1;
    }

    pub(crate) fn record_rx(&mut self, node: NodeId, kind: &'static str, bytes: u64) {
        let m = &mut self.per_node[node.index()];
        m.rx_bytes += bytes;
        m.rx_msgs += 1;
        let k = self.kind_mut(kind);
        k.rx_bytes += bytes;
        k.rx_count += 1;
    }

    pub(crate) fn record_expired(&mut self) {
        self.expired_events += 1;
    }

    /// Counters for a single node.
    pub fn node(&self, node: NodeId) -> NodeMetrics {
        self.per_node[node.index()]
    }

    /// Counters per message kind (tx and rx sides), ordered by kind name.
    pub fn by_kind(&self) -> BTreeMap<&'static str, KindMetrics> {
        self.by_kind.iter().copied().collect()
    }

    /// Counters for one message kind; all zero if none was sent.
    pub fn kind(&self, name: &str) -> KindMetrics {
        self.by_kind
            .iter()
            .find(|(kind, _)| *kind == name)
            .map_or_else(KindMetrics::default, |&(_, counters)| counters)
    }

    /// Events that arrived dead: link-completion events invalidated by a
    /// rate change (the pipe's generation moved on). The fluid-flow model never loses messages — transfers stall
    /// instead — so this counts the engine's discarded bookkeeping
    /// events, a cheap proxy for how much churn rate changes cause.
    pub fn expired_events(&self) -> u64 {
        self.expired_events
    }

    /// Total bytes enqueued across all nodes.
    pub fn total_tx_bytes(&self) -> u64 {
        self.per_node.iter().map(|m| m.tx_bytes).sum()
    }

    /// Total messages enqueued across all nodes.
    pub fn total_tx_msgs(&self) -> u64 {
        self.per_node.iter().map(|m| m.tx_msgs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut m = Metrics::new(2);
        m.record_tx(NodeId(0), "VOTE", 100);
        m.record_tx(NodeId(0), "VOTE", 50);
        m.record_tx(NodeId(1), "SIG", 10);
        m.record_rx(NodeId(1), "VOTE", 100);

        assert_eq!(m.node(NodeId(0)).tx_bytes, 150);
        assert_eq!(m.node(NodeId(0)).tx_msgs, 2);
        assert_eq!(m.node(NodeId(1)).rx_bytes, 100);
        assert_eq!(m.by_kind()["VOTE"].bytes, 150);
        assert_eq!(m.by_kind()["VOTE"].count, 2);
        assert_eq!(m.by_kind()["VOTE"].rx_bytes, 100);
        assert_eq!(m.by_kind()["VOTE"].rx_count, 1);
        assert_eq!(m.by_kind()["SIG"].rx_count, 0);
        assert_eq!(m.total_tx_bytes(), 160);
        assert_eq!(m.total_tx_msgs(), 3);
    }

    #[test]
    fn per_kind_rows_merge_equal_names_and_read_in_name_order() {
        let leaked: &'static str = Box::leak(String::from("VOTE").into_boxed_str());
        assert!(!std::ptr::eq(leaked, "VOTE"), "two pointers, one name");
        let mut m = Metrics::new(3);
        m.record_tx(NodeId(2), "SIG", 10);
        m.record_tx(NodeId(0), leaked, 100);
        m.record_tx(NodeId(1), "VOTE", 50);
        m.record_rx(NodeId(1), "VOTE", 100);
        m.record_rx(NodeId(2), leaked, 50);
        m.record_tx(NodeId(0), "ACK", 1);

        let rows = m.by_kind();
        let names: Vec<&str> = rows.keys().copied().collect();
        assert_eq!(names, ["ACK", "SIG", "VOTE"], "name order, not first-seen");
        let vote = KindMetrics {
            bytes: 150,
            count: 2,
            rx_bytes: 150,
            rx_count: 2,
        };
        assert_eq!(rows["VOTE"], vote, "equal names share one row");
        for (name, counters) in &rows {
            assert_eq!(m.kind(name), *counters);
        }
        assert_eq!(m.kind("VOTE"), m.kind(leaked));
        assert_eq!(m.kind("NONE"), KindMetrics::default());
        assert_eq!(
            rows.values().map(|k| k.bytes).sum::<u64>(),
            m.total_tx_bytes()
        );
        assert_eq!(
            rows.values().map(|k| k.count).sum::<u64>(),
            m.total_tx_msgs()
        );
    }

    #[test]
    fn expired_events_accumulate() {
        let mut m = Metrics::new(1);
        assert_eq!(m.expired_events(), 0);
        m.record_expired();
        m.record_expired();
        assert_eq!(m.expired_events(), 2);
    }
}
