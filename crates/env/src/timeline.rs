//! The platform-evolution timeline.
//!
//! "At regular intervals, new OS and software versions will then be
//! integrated into the system, under the supervision of experts from the
//! host IT department and experiment." (§3.1 ii)
//!
//! The timeline is the source of those integration events: a deterministic
//! sequence of environment changes (new OS generation, new compiler, new
//! external version, end-of-life notices) ordered by date, which the
//! migration workflow in `sp-core` consumes one by one.

use crate::compiler::Compiler;
use crate::os::OsRelease;
use crate::version::Version;

/// One platform-evolution event.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformEvent {
    /// A new OS generation becomes available as guest images.
    OsAvailable(OsRelease),
    /// An OS generation reaches end-of-life (security concerns, §2).
    OsEndOfLife(OsRelease),
    /// A new compiler generation is packaged.
    CompilerAvailable(Compiler),
    /// A new version of an external package is released.
    ExternalRelease {
        /// External package name.
        name: String,
        /// Newly available version.
        version: Version,
    },
}

impl PlatformEvent {
    /// Short description for logs and reports.
    pub fn describe(&self) -> String {
        match self {
            PlatformEvent::OsAvailable(os) => format!("{} guest images available", os.label()),
            PlatformEvent::OsEndOfLife(os) => format!("{} end-of-life", os.label()),
            PlatformEvent::CompilerAvailable(c) => format!("{} packaged", c.label()),
            PlatformEvent::ExternalRelease { name, version } => {
                format!("{name} {version} released")
            }
        }
    }
}

/// A dated platform event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Year of the event (the paper's granularity).
    pub year: u16,
    /// The event.
    pub event: PlatformEvent,
}

/// The HERA-era platform timeline, mirroring the real release history that
/// drove the DESY migrations.
fn hera_timeline() -> Vec<TimelineEntry> {
    let mut entries = vec![
        TimelineEntry {
            year: 2007,
            event: PlatformEvent::OsAvailable(OsRelease::SL5),
        },
        TimelineEntry {
            year: 2007,
            event: PlatformEvent::CompilerAvailable(Compiler::GCC41),
        },
        TimelineEntry {
            year: 2009,
            event: PlatformEvent::CompilerAvailable(Compiler::GCC44),
        },
        TimelineEntry {
            year: 2009,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(5, 26),
            },
        },
        TimelineEntry {
            year: 2010,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(5, 28),
            },
        },
        TimelineEntry {
            year: 2011,
            event: PlatformEvent::OsAvailable(OsRelease::SL6),
        },
        TimelineEntry {
            year: 2011,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(5, 30),
            },
        },
        TimelineEntry {
            year: 2012,
            event: PlatformEvent::OsEndOfLife(OsRelease::SL4),
        },
        TimelineEntry {
            year: 2012,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(5, 32),
            },
        },
        TimelineEntry {
            year: 2012,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(5, 34),
            },
        },
        TimelineEntry {
            year: 2014,
            event: PlatformEvent::OsAvailable(OsRelease::SL7),
        },
        TimelineEntry {
            year: 2014,
            event: PlatformEvent::CompilerAvailable(Compiler::GCC48),
        },
        TimelineEntry {
            year: 2014,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(6, 2),
            },
        },
    ];
    entries.sort_by_key(|e| e.year);
    entries
}

/// The post-paper extension: the releases and end-of-life notices a
/// deployment surviving past 2014 integrates — "the next challenges
/// include the testing of the SL7 environment" (§3.3) and beyond.
fn beyond_timeline() -> Vec<TimelineEntry> {
    vec![
        TimelineEntry {
            year: 2015,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(6, 4),
            },
        },
        TimelineEntry {
            year: 2016,
            event: PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(6, 8),
            },
        },
        TimelineEntry {
            year: 2019,
            event: PlatformEvent::OsEndOfLife(crate::os::OsRelease::SL5),
        },
        TimelineEntry {
            year: 2020,
            event: PlatformEvent::OsEndOfLife(crate::os::OsRelease::SL6),
        },
    ]
}

/// The full HERA + beyond timeline, sorted by year.
pub fn extended_timeline() -> Vec<TimelineEntry> {
    let mut entries = hera_timeline();
    entries.extend(beyond_timeline());
    entries.sort_by_key(|e| e.year);
    entries
}

/// Approximate Unix timestamp of January 1st of `year` (365.25-day years
/// from the epoch — the paper's timeline has year granularity, so drift of
/// a day per century is irrelevant).
pub fn year_to_unix(year: u16) -> u64 {
    (year.saturating_sub(1970) as u64) * 31_557_600
}

/// A clock-driven view over a timeline: feed it the virtual clock's "now"
/// and it yields the platform events that have become due since the last
/// call. This is the hook a long-horizon simulation uses to integrate new
/// OS generations and external releases as simulated time passes.
#[derive(Debug, Clone)]
pub struct TimelineCursor {
    entries: Vec<TimelineEntry>,
    next: usize,
}

impl TimelineCursor {
    /// Creates a cursor over `entries` (sorted by year internally).
    pub fn new(mut entries: Vec<TimelineEntry>) -> Self {
        entries.sort_by_key(|e| e.year);
        TimelineCursor { entries, next: 0 }
    }

    /// Events due at or before `now_secs` that have not been yielded yet,
    /// in year order. Subsequent calls with the same `now_secs` return
    /// nothing — each event fires exactly once.
    pub fn due(&mut self, now_secs: u64) -> Vec<TimelineEntry> {
        let mut fired = Vec::new();
        while let Some(entry) = self.entries.get(self.next) {
            if year_to_unix(entry.year) > now_secs {
                break;
            }
            fired.push(entry.clone());
            self.next += 1;
        }
        fired
    }

    /// Events not yet yielded.
    pub fn pending(&self) -> usize {
        self.entries.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_sorted() {
        let tl = hera_timeline();
        for pair in tl.windows(2) {
            assert!(pair[0].year <= pair[1].year);
        }
    }

    #[test]
    fn root_releases_appear_in_order() {
        let tl = hera_timeline();
        let roots: Vec<Version> = tl
            .iter()
            .filter_map(|e| match &e.event {
                PlatformEvent::ExternalRelease { name, version } if name == "root" => {
                    Some(*version)
                }
                _ => None,
            })
            .collect();
        assert_eq!(roots.len(), 6); // 5.26..5.34 plus 6.02
        for pair in roots.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn extended_timeline_is_sorted_and_superset() {
        let extended = extended_timeline();
        assert_eq!(
            extended.len(),
            hera_timeline().len() + beyond_timeline().len()
        );
        for pair in extended.windows(2) {
            assert!(pair[0].year <= pair[1].year);
        }
        assert!(extended
            .iter()
            .any(|e| matches!(e.event, PlatformEvent::OsEndOfLife(os) if os.generation == 6)));
    }

    #[test]
    fn cursor_fires_each_event_exactly_once() {
        let mut cursor = TimelineCursor::new(hera_timeline());
        let total = cursor.pending();

        // Nothing is due before the first event year.
        assert!(cursor.due(year_to_unix(2006)).is_empty());

        let through_2011 = cursor.due(year_to_unix(2011));
        assert!(!through_2011.is_empty());
        assert!(through_2011.iter().all(|e| e.year <= 2011));
        // Same instant again: already fired.
        assert!(cursor.due(year_to_unix(2011)).is_empty());

        let rest = cursor.due(u64::MAX);
        assert_eq!(through_2011.len() + rest.len(), total);
        assert_eq!(cursor.pending(), 0);
    }

    #[test]
    fn year_to_unix_is_monotonic_and_era_consistent() {
        assert_eq!(year_to_unix(1970), 0);
        assert!(year_to_unix(2013) < year_to_unix(2014));
        // Within a day of the real 2013-01-01 epoch used by sp-exec.
        let era_2013 = 1_356_998_400u64;
        assert!(year_to_unix(2013).abs_diff(era_2013) < 2 * 86_400);
    }

    #[test]
    fn describe_is_humane() {
        assert_eq!(
            PlatformEvent::OsEndOfLife(OsRelease::SL4).describe(),
            "SL4 end-of-life"
        );
        assert_eq!(
            PlatformEvent::ExternalRelease {
                name: "root".into(),
                version: Version::two(6, 2),
            }
            .describe(),
            "root 6.2 released"
        );
    }
}
