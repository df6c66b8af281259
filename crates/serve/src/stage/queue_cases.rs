//! Fixed cases of the pending queue's pick: FCFS order under mixed
//! pushes, unready entries ahead of ready ones, the next-event answer,
//! peeking, and the checkpoint view's order.

mod tests {
    use crate::stage::tests::entry;
    use crate::stage::PendingQueue;

    /// Pops every entry admissible at `clock_s`, in pick order, by seq.
    fn drain_all(q: &mut PendingQueue, clock_s: f64) -> Vec<u64> {
        let mut out = Vec::new();
        while q.peek_ready(clock_s).is_some() {
            out.push(q.pop_ready().req.seq);
        }
        out
    }

    #[test]
    fn fcfs_order_matches_a_deque() {
        let mut q = PendingQueue::new();
        q.push_back(0.0, entry(1));
        q.push_back(0.0, entry(2));
        q.push_front(0.0, entry(3));
        q.push_front(0.0, entry(4)); // later push_front is frontmost
        q.push_back(0.0, entry(5));
        assert_eq!(q.len(), 5);
        assert_eq!(drain_all(&mut q, 1.0), vec![4, 3, 1, 2, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn unready_entries_do_not_block_ready_ones_behind_them() {
        let mut q = PendingQueue::new();
        q.push_back(5.0, entry(1)); // head, not ready
        q.push_back(1.0, entry(2)); // behind, ready
        assert_eq!(q.peek_ready(2.0).map(|p| p.req.seq), Some(2));
        // Once the clock reaches the head, FCFS order resumes.
        assert_eq!(drain_all(&mut q, 5.0), vec![1, 2]);
    }

    #[test]
    fn next_ready_is_the_global_minimum() {
        let mut q = PendingQueue::new();
        assert_eq!(q.next_ready_s(0.0), 0.0, "an empty queue waits for nothing");
        q.push_back(3.0, entry(1));
        q.push_back(1.0, entry(2));
        q.push_back(2.0, entry(3));
        assert_eq!(q.next_ready_s(0.0), 1.0);
        assert_eq!(q.peek_ready(1.5).map(|p| p.req.seq), Some(2));
        assert_eq!(q.next_ready_s(1.5), 1.5, "a released entry is admissible now");
        assert_eq!(q.pop_ready().req.seq, 2);
        assert_eq!(q.next_ready_s(1.5), 2.0);
    }

    #[test]
    fn peek_does_not_remove_and_removal_reuses_slots() {
        let mut q = PendingQueue::new();
        q.push_back(0.0, entry(7));
        assert_eq!(q.peek_ready(0.0).map(|p| p.req.seq), Some(7));
        assert_eq!(q.peek_ready(0.0).map(|p| p.req.seq), Some(7), "peek is idempotent");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_ready().req.seq, 7);
        assert!(q.is_empty());
        // Nothing of the popped entry stays behind to answer for the next.
        q.push_back(4.0, entry(8));
        assert_eq!(q.next_ready_s(0.0), 4.0);
        assert!(q.peek_ready(2.0).is_none(), "new entry is not ready yet");
        assert_eq!(q.peek_ready(4.0).map(|p| p.req.seq), Some(8));
    }

    #[test]
    fn ordered_view_matches_queue_order() {
        let mut q = PendingQueue::new();
        q.push_back(1.0, entry(10));
        q.push_front(2.0, entry(20));
        q.push_back(3.0, entry(30));
        let order: Vec<(f64, u64)> = q.entries().map(|&(r, p)| (r, p.req.seq)).collect();
        assert_eq!(order, vec![(2.0, 20), (1.0, 10), (3.0, 30)]);
    }
}
