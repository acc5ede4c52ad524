//! The alarm state machine.

use std::collections::HashMap;

use crate::rule::Rule;
use crate::sink::AlarmSink;

/// Alarm lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmStatus {
    /// Condition not violated.
    Ok,
    /// Violated, waiting out `hold_secs` (since the recorded time).
    Pending { since: u64 },
    /// Alarm raised.
    Firing { since: u64 },
}

/// A state transition worth telling a human about.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmEvent {
    pub rule: String,
    /// `cluster` or `cluster/host`.
    pub subject: String,
    pub kind: AlarmKind,
    /// The observed value at the transition.
    pub value: f64,
    pub at: u64,
}

/// The transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmKind {
    Raised,
    Cleared,
}

/// The per-`(rule, subject)` hysteresis state machine behind
/// [`AlarmFeed`](crate::feed::AlarmFeed).
pub struct AlarmEngine {
    rules: Vec<Rule>,
    states: HashMap<(String, String), AlarmStatus>,
}

impl AlarmEngine {
    /// An engine with a rule set.
    pub fn new(rules: Vec<Rule>) -> AlarmEngine {
        AlarmEngine {
            rules,
            states: HashMap::new(),
        }
    }

    /// The current status of one `(rule, subject)` pair.
    pub fn status(&self, rule: &str, subject: &str) -> AlarmStatus {
        self.states
            .get(&(rule.to_string(), subject.to_string()))
            .copied()
            .unwrap_or(AlarmStatus::Ok)
    }

    /// All currently-firing `(rule, subject)` pairs.
    pub fn firing(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .states
            .iter()
            .filter(|(_, s)| matches!(s, AlarmStatus::Firing { .. }))
            .map(|(k, _)| k.clone())
            .collect();
        out.sort();
        out
    }

    /// Drive the hysteresis state machine with pre-gathered
    /// `(rule name, subject, value)` observations, as
    /// [`AlarmFeed`](crate::feed::AlarmFeed) maps them from GQL rows.
    pub fn apply_observations(
        &mut self,
        observations: Vec<(String, String, f64)>,
        now: u64,
        sink: &dyn AlarmSink,
    ) -> Vec<AlarmEvent> {
        let mut events = Vec::new();
        for (rule_name, subject, value) in observations {
            // An observation for a rule this engine doesn't know is
            // dropped rather than panicking: feeds are configured
            // separately from the engine.
            let Some(rule) = self.rules.iter().find(|r| r.name == rule_name) else {
                continue;
            };
            let violated = rule.comparison.violated_by(value);
            let key = (rule_name.clone(), subject.clone());
            let current = self.states.get(&key).copied().unwrap_or(AlarmStatus::Ok);
            let next = match (current, violated) {
                (AlarmStatus::Ok, true) => {
                    if rule.hold_secs == 0 {
                        events.push(AlarmEvent {
                            rule: rule_name,
                            subject,
                            kind: AlarmKind::Raised,
                            value,
                            at: now,
                        });
                        AlarmStatus::Firing { since: now }
                    } else {
                        AlarmStatus::Pending { since: now }
                    }
                }
                (AlarmStatus::Pending { since }, true) => {
                    if now.saturating_sub(since) >= rule.hold_secs {
                        events.push(AlarmEvent {
                            rule: rule_name,
                            subject,
                            kind: AlarmKind::Raised,
                            value,
                            at: now,
                        });
                        AlarmStatus::Firing { since }
                    } else {
                        AlarmStatus::Pending { since }
                    }
                }
                (AlarmStatus::Firing { since }, true) => AlarmStatus::Firing { since },
                (AlarmStatus::Firing { .. }, false) => {
                    events.push(AlarmEvent {
                        rule: rule_name,
                        subject,
                        kind: AlarmKind::Cleared,
                        value,
                        at: now,
                    });
                    AlarmStatus::Ok
                }
                (_, false) => AlarmStatus::Ok,
            };
            if next == AlarmStatus::Ok {
                self.states.remove(&key);
            } else {
                self.states.insert(key, next);
            }
        }
        for event in &events {
            sink.notify(event);
        }
        events
    }
}
