//! The built-in decision rules, written once over the MDP state.
//!
//! Honest mining, Eyal–Sirer selfish mining (SM1, the paper's
//! Algorithm 1) and Nayak et al.'s lead-stubborn mining are fixed rules
//! over `(a, h, fork)`. The instant-broadcast engine plays them directly,
//! the strategy zoo builds its families on them, and
//! [`crate::PolicyTable::honest`] lowers the honest rule into a table.
//!
//! A rule is consulted right after every block event, with `a` the
//! private branch's length, `h` the public branch's length above the last
//! settled block and `fork` the MDP fork qualifier. Every rule is legal in
//! every state by [`crate::PolicyTable::decide`]'s rules: *override* only
//! with `a > h`, *match* only in a relevant race with `a ≥ h ≥ 1`. The
//! rules need no truncation: they never force an adopt a table boundary
//! would.

use crate::{Action, Fork};

/// Honest mining: publish any lead at once (*override*), adopt otherwise.
/// Earns exactly the fair share `α`.
pub fn honest(a: u32, h: u32) -> Action {
    if a > h {
        Action::Override
    } else {
        Action::Adopt
    }
}

/// Eyal–Sirer selfish mining (SM1), which is the paper's Algorithm 1.
///
/// Case by case, with Algorithm 1's line numbers; "pool block" and
/// "honest block" name the event the state follows:
///
/// - `h > a`, after an honest block: the public chain is longer and the
///   pool adopts it (lines 10-12).
/// - `h = 0`: nothing public to race. After a pool block the pool keeps
///   mining privately (lines 6-7); `(0, 0)` is the settled start.
/// - `a = h + 1`, an *override*:
///   - after an honest block, a lead of one is left, so the pool
///     publishes everything and wins (lines 15-17);
///   - after a pool block in a live tie race, `(2, 1)`, the advantage is
///     too slim to keep, so the pool publishes and settles (lines 3-5).
/// - `a = h` after an honest block: publish the last block and race a tie
///   (lines 13-14). In the MDP alphabet that is a *match*.
/// - `a ≥ h + 2` after an honest block: publish the first unpublished
///   block (lines 18-20). That keeps the public prefix level with the
///   honest chain, again a *match*. With `γ > 0`, honest power that lands
///   on the revealed prefix settles it for the pool. Playing *wait*
///   instead falls about 0.03 short of the closed form at
///   `α = 0.4, γ = 0.5`.
/// - Any other state follows a pool block with a prefix already out
///   (`fork` active or irrelevant): keep mining privately (lines 6-7).
pub fn sm1(a: u32, h: u32, fork: Fork) -> Action {
    if h > a {
        Action::Adopt
    } else if h == 0 {
        Action::Wait
    } else if a == h + 1 {
        Action::Override
    } else if fork == Fork::Relevant {
        Action::Match
    } else {
        Action::Wait
    }
}

/// Lead-stubborn mining `L_k` (Nayak et al., "Stubborn Mining", EuroS&P
/// 2016): SM1 that refuses to cash in a lead of one while the public
/// branch is shorter than `k`. At `a = h + 1` it *matches* after an
/// honest block, keeping one block hidden, and keeps mining after its own
/// block. `k = 0` is exactly SM1; `k = u32::MAX` never cashes in and only
/// gives up when the public chain is strictly longer.
pub fn lead_stubborn(a: u32, h: u32, fork: Fork, k: u32) -> Action {
    if a == h + 1 && h >= 1 && h < k {
        if fork == Fork::Relevant {
            Action::Match
        } else {
            Action::Wait
        }
    } else {
        sm1(a, h, fork)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_is_legal_everywhere() {
        // `PolicyTable::decide`'s legality rules, away from any boundary.
        let legal = |action, a: u32, h: u32, fork| match action {
            Action::Override => a > h,
            Action::Match => fork == Fork::Relevant && a >= h && h >= 1,
            Action::Adopt | Action::Wait => true,
        };
        for fork in [Fork::Irrelevant, Fork::Relevant, Fork::Active] {
            for (a, h) in (0..40).flat_map(|a| (0..40).map(move |h| (a, h))) {
                for k in [0, 3, u32::MAX] {
                    let action = lead_stubborn(a, h, fork, k);
                    assert!(
                        legal(action, a, h, fork),
                        "{action:?} at ({a}, {h}, {fork:?})"
                    );
                }
                assert!(legal(sm1(a, h, fork), a, h, fork));
                assert!(legal(honest(a, h), a, h, fork));
            }
        }
        // Far past any table truncation a lead is still held.
        assert_eq!(sm1(10_000, 0, Fork::Irrelevant), Action::Wait);
        assert_eq!(sm1(10_000, 9_998, Fork::Relevant), Action::Match);
    }

    #[test]
    fn sm1_plays_the_textbook_states() {
        assert_eq!(sm1(0, 0, Fork::Irrelevant), Action::Wait);
        assert_eq!(sm1(1, 0, Fork::Irrelevant), Action::Wait);
        assert_eq!(sm1(0, 1, Fork::Relevant), Action::Adopt);
        assert_eq!(sm1(1, 1, Fork::Relevant), Action::Match);
        assert_eq!(sm1(1, 1, Fork::Active), Action::Wait);
        assert_eq!(sm1(2, 1, Fork::Relevant), Action::Override);
        assert_eq!(sm1(2, 1, Fork::Active), Action::Override);
        // The progressive reveal: at a comfortable lead SM1 keeps its
        // public prefix level with the honest chain.
        assert_eq!(sm1(3, 1, Fork::Relevant), Action::Match);
        assert_eq!(sm1(5, 2, Fork::Relevant), Action::Match);
        // Mid-race / after an own block the prefix is already out.
        assert_eq!(sm1(3, 1, Fork::Active), Action::Wait);
        assert_eq!(sm1(3, 1, Fork::Irrelevant), Action::Wait);
        assert_eq!(sm1(3, 0, Fork::Irrelevant), Action::Wait);
    }
}
