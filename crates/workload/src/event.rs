//! Arrival events and sequences.

use std::sync::Arc;

use nimblock_ser::{
    field_from_json, impl_json_struct, impl_to_json_struct, FromJson, Json, JsonError,
};

use nimblock_app::{AppSpec, Priority};
use nimblock_sim::SimTime;

/// The arrival of one application at the hypervisor: which benchmark, how
/// many batch items, at what priority, and when (paper §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalEvent {
    app: Arc<AppSpec>,
    batch_size: u32,
    priority: Priority,
    arrival: SimTime,
}

impl_to_json_struct!(ArrivalEvent { app, batch_size, priority, arrival });

impl FromJson for ArrivalEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| JsonError::expected("object for ArrivalEvent", v))?;
        let batch_size = field_from_json(pairs, "batch_size")?;
        if batch_size == 0 {
            return Err(JsonError::new("field `batch_size`: must be at least 1"));
        }
        Ok(ArrivalEvent {
            app: field_from_json(pairs, "app")?,
            batch_size,
            priority: field_from_json(pairs, "priority")?,
            arrival: field_from_json(pairs, "arrival")?,
        })
    }
}

impl ArrivalEvent {
    /// Creates an arrival event.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero — an application with nothing to
    /// compute never retires.
    pub fn new(
        app: impl Into<Arc<AppSpec>>,
        batch_size: u32,
        priority: Priority,
        arrival: SimTime,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        ArrivalEvent {
            app: app.into(),
            batch_size,
            priority,
            arrival,
        }
    }

    /// Returns the application specification.
    pub fn app(&self) -> &Arc<AppSpec> {
        &self.app
    }

    /// Returns the batch size requested by the user.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Returns the priority level.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Returns the arrival time.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }
}

/// An ordered sequence of arrival events — one test stimulus.
///
/// # Example
///
/// ```
/// use nimblock_app::{benchmarks, Priority};
/// use nimblock_sim::SimTime;
/// use nimblock_workload::{ArrivalEvent, EventSequence};
///
/// let seq = EventSequence::new(vec![
///     ArrivalEvent::new(benchmarks::lenet(), 2, Priority::High, SimTime::from_millis(100)),
///     ArrivalEvent::new(benchmarks::rendering_3d(), 1, Priority::Low, SimTime::ZERO),
/// ]);
/// // Sequences sort themselves by arrival time.
/// assert_eq!(seq.events()[0].app().name(), "3DRendering");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventSequence {
    events: Vec<ArrivalEvent>,
}

impl_json_struct!(EventSequence { events });

impl EventSequence {
    /// Creates a sequence, sorting events by arrival time (stable, so
    /// same-instant events keep their given order).
    pub fn new(mut events: Vec<ArrivalEvent>) -> Self {
        events.sort_by_key(ArrivalEvent::arrival);
        EventSequence { events }
    }

    /// Returns the events in arrival order.
    pub fn events(&self) -> &[ArrivalEvent] {
        &self.events
    }

    /// Returns the number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the sequence has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns an iterator over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, ArrivalEvent> {
        self.events.iter()
    }
}

impl FromIterator<ArrivalEvent> for EventSequence {
    fn from_iter<I: IntoIterator<Item = ArrivalEvent>>(iter: I) -> Self {
        EventSequence::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a EventSequence {
    type Item = &'a ArrivalEvent;
    type IntoIter = std::slice::Iter<'a, ArrivalEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimblock_app::benchmarks;

    #[test]
    fn sequence_sorts_by_arrival() {
        let seq = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::lenet(), 1, Priority::Low, SimTime::from_millis(50)),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::Low, SimTime::ZERO),
        ]);
        assert_eq!(seq.events()[0].batch_size(), 2);
        assert_eq!(seq.len(), 2);
    }

    #[test]
    fn stable_sort_keeps_simultaneous_order() {
        let seq = EventSequence::new(vec![
            ArrivalEvent::new(benchmarks::lenet(), 1, Priority::Low, SimTime::ZERO),
            ArrivalEvent::new(benchmarks::lenet(), 2, Priority::Low, SimTime::ZERO),
        ]);
        assert_eq!(seq.events()[0].batch_size(), 1);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        ArrivalEvent::new(benchmarks::lenet(), 0, Priority::Low, SimTime::ZERO);
    }

    #[test]
    fn collects_from_iterator() {
        let seq: EventSequence = (0..3)
            .map(|i| {
                ArrivalEvent::new(
                    benchmarks::lenet(),
                    i + 1,
                    Priority::Medium,
                    SimTime::from_millis(u64::from(i) * 10),
                )
            })
            .collect();
        assert_eq!(seq.len(), 3);
        assert!(!seq.is_empty());
    }

    /// Stimulus files are untrusted input. Each one-field edit below turns
    /// a generated stimulus into one the estimator or the hypervisor cannot
    /// run; decoding must return an `Err` for it, never a value that panics
    /// later. A graph is stored as `tasks` and `edges` only; derived fields
    /// (`preds`, `succs`, `topo`, `levels`) that a file carries are ignored
    /// and rebuilt, so stale ones change nothing.
    mod untrusted_stimulus {
        use crate::{generate, EventSequence, Scenario};
        use nimblock_ser::{FromJson, Json, JsonError, ToJson};

        fn field<'a>(value: &'a mut Json, key: &str) -> &'a mut Json {
            match value {
                Json::Object(pairs) => {
                    &mut pairs
                        .iter_mut()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no field `{key}`"))
                        .1
                }
                other => panic!("expected an object, found {}", other.type_name()),
            }
        }

        /// Adds a field that the encoder does not write.
        fn insert(value: &mut Json, key: &str, stored: Json) {
            match value {
                Json::Object(pairs) => {
                    assert!(pairs.iter().all(|(k, _)| k != key), "`{key}` already present");
                    pairs.push((key.to_owned(), stored));
                }
                other => panic!("expected an object, found {}", other.type_name()),
            }
        }

        fn array(value: &mut Json) -> &mut Vec<Json> {
            match value {
                Json::Array(items) => items,
                other => panic!("expected an array, found {}", other.type_name()),
            }
        }

        fn first_event(doc: &mut Json) -> &mut Json {
            &mut array(field(doc, "events"))[0]
        }

        fn first_graph(doc: &mut Json) -> &mut Json {
            field(field(first_event(doc), "app"), "graph")
        }

        fn stimulus() -> EventSequence {
            generate(2023, 4, Scenario::Standard)
        }

        /// Decodes the generated stimulus after `edit` has changed it.
        fn decode_edited(edit: impl FnOnce(&mut Json)) -> Result<EventSequence, JsonError> {
            let mut doc = stimulus().to_json();
            edit(&mut doc);
            EventSequence::from_json(&doc)
        }

        /// Appends an edge, built from its first edge, to the first
        /// arrival's graph.
        fn add_edge(doc: &mut Json, make: impl FnOnce(u64, u64) -> (u64, u64)) {
            let edges = array(field(first_graph(doc), "edges"));
            let first = array(&mut edges[0]);
            let (from, to) = (first[0].as_u64().unwrap(), first[1].as_u64().unwrap());
            let (from, to) = make(from, to);
            edges.push(Json::Array(vec![Json::U64(from), Json::U64(to)]));
        }

        fn assert_rejected(result: Result<EventSequence, JsonError>, needle: &str) {
            match result {
                Ok(_) => {
                    panic!("an edited stimulus decoded; expected an error mentioning `{needle}`")
                }
                Err(e) => assert!(e.to_string().contains(needle), "{e}"),
            }
        }

        #[test]
        fn zero_batch_size_is_rejected() {
            assert_rejected(
                decode_edited(|doc| *field(first_event(doc), "batch_size") = Json::U64(0)),
                "batch_size",
            );
        }

        #[test]
        fn a_graph_without_tasks_is_rejected() {
            assert_rejected(
                decode_edited(|doc| {
                    let graph = first_graph(doc);
                    array(field(graph, "tasks")).clear();
                    array(field(graph, "edges")).clear();
                }),
                "no tasks",
            );
        }

        #[test]
        fn an_out_of_range_edge_is_rejected() {
            assert_rejected(
                decode_edited(|doc| add_edge(doc, |from, _| (from, 99))),
                "never added",
            );
        }

        #[test]
        fn a_self_loop_is_rejected() {
            assert_rejected(
                decode_edited(|doc| add_edge(doc, |from, _| (from, from))),
                "depends on itself",
            );
        }

        #[test]
        fn a_duplicate_edge_is_rejected() {
            assert_rejected(
                decode_edited(|doc| add_edge(doc, |from, to| (from, to))),
                "added twice",
            );
        }

        #[test]
        fn a_cycle_is_rejected() {
            assert_rejected(
                decode_edited(|doc| add_edge(doc, |from, to| (to, from))),
                "cycle",
            );
        }

        #[test]
        fn stored_derived_fields_are_rebuilt_not_trusted() {
            // An out-of-range `topo` entry and `preds` that disagree with
            // `edges`, as an older or hand-edited file may carry, must not
            // reach the estimator: decoding ignores both.
            let decoded = decode_edited(|doc| {
                let graph = first_graph(doc);
                insert(graph, "topo", Json::Array(vec![Json::U64(99)]));
                insert(graph, "preds", Json::Array(vec![Json::Array(Vec::new())]));
            });
            assert_eq!(decoded.unwrap(), stimulus());
        }
    }
}
