// Package sib stands for the rest of the module.
package sib

import "internal"

var _ = internal.ForSibling()

func init() { internal.Entry() }
