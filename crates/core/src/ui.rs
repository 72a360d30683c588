//! The viewer's user-interface widgets (Figure 1).
//!
//! "The viewer provides three UI widgets to access DejaView's recording
//! functionality: a search button opens a dialog box to search for
//! recorded information, with results displayed as a gallery of
//! screenshots; a slider provides PVR-like functionality ...; a *Take
//! me back* button revives the desktop session at the point in time
//! currently displayed" (§2). [`ViewerUi`] is that widget layer: it
//! holds the UI-visible state (slider position, the result gallery)
//! and drives the server.

use dv_display::Screenshot;
use dv_index::RankOrder;
use dv_time::Timestamp;

use crate::error::ServerError;
use crate::server::{DejaView, SearchResult};

/// Whether the viewer shows the live session or a paused/past point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ViewMode {
    /// Tracking the live session.
    Live,
    /// Paused at a point in the record (the slider was moved).
    Paused(Timestamp),
}

/// The viewer's widget state.
pub struct ViewerUi {
    mode: ViewMode,
    gallery: Vec<SearchResult>,
}

impl ViewerUi {
    /// Creates a UI tracking the live session.
    pub fn new() -> Self {
        ViewerUi {
            mode: ViewMode::Live,
            gallery: Vec::new(),
        }
    }

    /// Returns the time the viewer currently displays.
    pub fn position(&self, dv: &DejaView) -> Timestamp {
        match self.mode {
            ViewMode::Live => dv.now(),
            ViewMode::Paused(t) => t,
        }
    }

    /// The slider (widget 2): moves the displayed time and returns the
    /// reconstructed screen; the view pauses there.
    pub fn slider_seek(
        &mut self,
        dv: &mut DejaView,
        t: Timestamp,
    ) -> Result<Screenshot, ServerError> {
        let shot = dv.browse(t)?;
        self.mode = ViewMode::Paused(t);
        Ok(shot)
    }

    /// Returns to following the live session.
    pub fn resume_live(&mut self) {
        self.mode = ViewMode::Live;
    }

    /// The search button (widget 1): runs a query and fills the result
    /// gallery with screenshot portals.
    pub fn search_button(
        &mut self,
        dv: &mut DejaView,
        query: &str,
        order: RankOrder,
    ) -> Result<&[SearchResult], ServerError> {
        self.gallery = dv.search(query, order)?;
        Ok(&self.gallery)
    }

    /// Clicking a gallery entry jumps the viewer to that result.
    ///
    /// # Errors
    ///
    /// Fails with [`ServerError::NoSuchResult`] if `index` is out of
    /// range, or with a playback error.
    pub fn open_result(
        &mut self,
        dv: &mut DejaView,
        index: usize,
    ) -> Result<Screenshot, ServerError> {
        let time = self
            .gallery
            .get(index)
            .map(|r| r.hit.time)
            .ok_or(ServerError::NoSuchResult(index))?;
        self.slider_seek(dv, time)
    }

    /// The *Take me back* button (widget 3): revives the session at the
    /// currently displayed point in time and returns the new session id.
    pub fn take_me_back_button(&mut self, dv: &mut DejaView) -> Result<u64, ServerError> {
        let t = self.position(dv);
        dv.take_me_back(t)
    }
}

impl Default for ViewerUi {
    fn default() -> Self {
        ViewerUi::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use dv_access::Role;
    use dv_display::Rect;
    use dv_time::Duration;

    fn recorded_server() -> DejaView {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            ..Config::default()
        });
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        let win = dv.desktop_mut().add_node(app, root, Role::Window, "w");
        dv.desktop_mut()
            .add_node(app, win, Role::Paragraph, "gallery target text");
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 0x111111);
        dv.clock().advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 0x222222);
        dv.clock().advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        dv
    }

    #[test]
    fn slider_pauses_and_resume_returns_live() {
        let mut dv = recorded_server();
        let mut ui = ViewerUi::new();
        assert_eq!(ui.mode, ViewMode::Live);
        assert_eq!(ui.position(&dv), dv.now());
        let shot = ui
            .slider_seek(&mut dv, Timestamp::from_millis(500))
            .unwrap();
        assert!(shot.pixels.contains(&0x111111));
        assert_eq!(ui.mode, ViewMode::Paused(Timestamp::from_millis(500)));
        ui.resume_live();
        assert_eq!(ui.mode, ViewMode::Live);
    }

    #[test]
    fn search_fills_gallery_and_opens_results() {
        let mut dv = recorded_server();
        let mut ui = ViewerUi::new();
        let results = ui
            .search_button(&mut dv, "gallery", RankOrder::Chronological)
            .unwrap();
        assert_eq!(results.len(), 1);
        let shot = ui.open_result(&mut dv, 0).unwrap();
        assert_eq!((shot.width, shot.height), (64, 64));
        assert!(matches!(ui.mode, ViewMode::Paused(_)));
        assert!(ui.open_result(&mut dv, 9).is_err());
    }

    #[test]
    fn take_me_back_uses_the_displayed_time() {
        let mut dv = recorded_server();
        let mut ui = ViewerUi::new();
        ui.slider_seek(&mut dv, Timestamp::from_millis(1_500))
            .unwrap();
        let sid = ui.take_me_back_button(&mut dv).unwrap();
        let session = dv.session(sid).unwrap();
        // The checkpoint at t=1s is the last one before the paused view.
        assert_eq!(session.counter, 1);
    }
}
