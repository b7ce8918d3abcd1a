package session

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/world"
)

// Figure regenerates the screenshot of one of the paper's figures (1-12)
// on a w x h screen. Figures 4-12 are successive snapshots of the
// debugging session; figures 1-3 are the small introductory scenarios.
func Figure(n, w, h int) (Step, error) {
	switch n {
	case 1:
		return figure1(w, h)
	case 2:
		return figure2(w, h)
	case 3:
		return figure3(w, h)
	case 4, 5, 6, 7, 8, 9, 10, 11, 12:
		s, err := New(w, h)
		if err != nil {
			return Step{}, err
		}
		if n > 4 {
			if err := s.RunDebugSession(); err != nil {
				return Step{}, err
			}
		}
		name := fmt.Sprintf("fig%d", n)
		for _, st := range s.Steps {
			if st.Name == name {
				return st, nil
			}
		}
		return Step{}, fmt.Errorf("session: no step %s", name)
	}
	return Step{}, fmt.Errorf("session: no figure %d (paper has 1-12)", n)
}

// figure1 rebuilds Figure 1: "A small help screen showing two columns of
// windows. ... The directory /usr/rob/src/help has been Opened and, from
// there, the source files errs.c and file.c."
func figure1(w, h int) (Step, error) {
	wld, err := world.Build(w, h)
	if err != nil {
		return Step{}, err
	}
	s := &Session{W: wld, H: wld.Help}

	// The mail window in the top left of the figure.
	mick := s.H.NewWindowIn(0)
	mick.Tag.SetString("From mick\tClose!")
	mick.Tag.SetClean()
	mick.Body.SetString(
		".com!cs.bbk.ac.uk!localhost!cs.bbk.ac.uk!mick Fri Apr 12 14:48:23 EDT 1991\n" +
			"Subject: UNIX in song & verse\n\nRob,\n\n" +
			"The UKUUG are collecting old-time\nverses about UNIX before they\n" +
			"disappear from the minds of those\nwho know them.\n")
	mick.Body.SetClean()

	// Open the directory into the right column.
	dirWin, err := s.H.OpenFile(world.SrcDir, "")
	if err != nil {
		return Step{}, err
	}
	s.H.MoveWindowToColumn(dirWin, 1)

	// From the directory window, point at the source files and Open: the
	// directory name in the tag supplies the context.
	for _, f := range []string{"errs.c", "file.c"} {
		if err := s.PointAt(dirWin, f); err != nil {
			return Step{}, err
		}
		s.H.Execute(dirWin, "Open")
	}
	// file.c ("string routines") reads better in the left column, as in
	// the figure.
	if fw := s.H.WindowByName(world.SrcDir + "/file.c"); fw != nil {
		s.H.MoveWindowToColumn(fw, 0)
	}
	// Leave the current selection in the bottom-left window, as printed.
	if fw := s.H.WindowByName(world.SrcDir + "/file.c"); fw != nil {
		if err := s.PointAt(fw, "string routines"); err != nil {
			return Step{}, err
		}
	}
	s.Snapshot("fig1", "two columns; directory opened, then errs.c and file.c from it")
	return s.Last(), nil
}

// figure2 rebuilds Figure 2: "Executing Cut by sweeping the word while
// holding down the middle mouse button" over a selection in the profile.
func figure2(w, h int) (Step, error) {
	s, err := New(w, h)
	if err != nil {
		return Step{}, err
	}
	if _, err := s.H.OpenFile(world.Profile, ""); err != nil {
		return Step{}, err
	}
	prof, err := s.Window(world.Profile)
	if err != nil {
		return Step{}, err
	}
	// Select a line of the profile with the left button.
	if err := s.SelectSweep(prof, "bind -a /net/dk", "prompt"); err != nil {
		return Step{}, err
	}
	// Execute Cut by sweeping the word in the edit tool with the middle
	// button. The figure captures the moment mid-sweep, with the swept
	// text underlined; we snapshot there, then release to finish.
	edit, err := s.Window("/help/edit/stf")
	if err != nil {
		return Step{}, err
	}
	s.H.Render()
	p0, ok := s.H.FindBody(edit, "Cut")
	if !ok {
		return Step{}, fmt.Errorf("session: Cut not visible in edit tool")
	}
	p1 := p0
	p1.X += len("Cut")
	s.handle([]event.Event{
		event.MouseEvent(event.Mouse{Pt: p0, Buttons: event.Middle}),
		event.MouseEvent(event.Mouse{Pt: p1, Buttons: event.Middle}),
	})
	s.Snapshot("fig2", "executing Cut by sweeping the word with the middle button (swept text underlined)")
	mid := s.Last()
	// Release: the sweep executes and the selection is cut.
	s.handle([]event.Event{event.MouseEvent(event.Mouse{Pt: p1, Buttons: 0})})
	return mid, nil
}

// figure3 rebuilds Figure 3: "After typing the full path name of help.c,
// the selection is automatically the null string at the end of the file
// name, so just click Open ... Next, after pointing into dat.h, Open will
// get /usr/rob/src/help/dat.h."
func figure3(w, h int) (Step, error) {
	s, err := New(w, h)
	if err != nil {
		return Step{}, err
	}
	// Type the full path into a fresh window (the one keyboard use in
	// these scenarios; the paper's point is what happens *after* typing).
	scratch := s.H.NewWindowIn(0)
	s.H.Render()
	p, ok := s.H.FindBody(scratch, "")
	if !ok {
		return Step{}, fmt.Errorf("session: scratch window has no body")
	}
	s.handle(event.Click(event.Left, p))
	s.handle(event.Type(world.SrcDir + "/help.c"))

	// The selection is the null string at the end of the name: just click
	// Open.
	edit, err := s.Window("/help/edit/stf")
	if err != nil {
		return Step{}, err
	}
	if err := s.ExecWord(edit, "Open"); err != nil {
		return Step{}, err
	}
	helpWin, err := s.Window(world.SrcDir + "/help.c")
	if err != nil {
		return Step{}, err
	}
	// Point into dat.h and Open: the defaults grab the whole name and the
	// tag's directory supplies the context.
	if err := s.PointAt(helpWin, "dat.h"); err != nil {
		return Step{}, err
	}
	if err := s.ExecWord(edit, "Open"); err != nil {
		return Step{}, err
	}
	datWin, err := s.Window(world.SrcDir + "/dat.h")
	if err != nil {
		return Step{}, err
	}
	// Bring the new window fully into view (a tab click), as the figure
	// shows it.
	if _, err := s.findBody(datWin, "typedef struct Text"); err != nil {
		return Step{}, err
	}
	s.Snapshot("fig3", "opening help.c by typed path, then dat.h by pointing")
	return s.Last(), nil
}
